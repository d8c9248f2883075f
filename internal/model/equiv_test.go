package model

import (
	"bytes"
	"testing"
	"testing/quick"

	"cnetverifier/internal/types"
)

// The interned-slab representation has three load-bearing equivalences
// the checker depends on: CloneInto must reproduce the source exactly
// (the parallel engine recycles pooled worlds through it), Save/Restore
// must rewind every logical component (the sequential DFS backtracks in
// place instead of cloning), and applying a step in place must land on
// the same state as applying it to a clone (apply/undo and clone-based
// search explore the same graph). Each property drives a random step
// sequence through the ping/pong world and compares full Encode images,
// which cover machine states, vars, overflow vars, queues and globals.

var quickEnv = []EnvEvent{
	{Proc: "A", Msg: types.Message{Kind: types.MsgUserDataOn}},
}

// walk applies up to len(choices) randomly chosen steps to w.
func walk(w *World, choices []uint8) {
	for _, choice := range choices {
		steps := w.Steps(quickEnv)
		if len(steps) == 0 {
			return
		}
		if _, err := w.Apply(steps[int(choice)%len(steps)]); err != nil {
			panic(err)
		}
	}
}

// Property: CloneInto over a reused (dirty) destination produces a
// world whose encoding and hash match the source, and the pair then
// evolve identically under the same steps.
func TestQuickCloneIntoEquivalence(t *testing.T) {
	dst := &World{} // reused across iterations, like a pooled world
	f := func(prefix, suffix []uint8) bool {
		w := pingPongWorldQ()
		walk(w, prefix)
		w.CloneInto(dst)
		if w.Hash() != dst.Hash() {
			return false
		}
		if !bytes.Equal(w.Encode(nil), dst.Encode(nil)) {
			return false
		}
		walk(w, suffix)
		walk(dst, suffix)
		return bytes.Equal(w.Encode(nil), dst.Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Save → any number of applied steps → Restore is an exact
// round trip, and the snapshot stays valid for repeated restores.
func TestQuickSaveRestoreRoundTrip(t *testing.T) {
	var u Undo // reused, like the per-depth frames in the DFS
	f := func(prefix, body, body2 []uint8) bool {
		w := pingPongWorldQ()
		walk(w, prefix)
		before := w.Encode(nil)
		w.Save(&u)
		walk(w, body)
		w.Restore(&u)
		if !bytes.Equal(before, w.Encode(nil)) {
			return false
		}
		// The same snapshot must back out a second divergence too.
		walk(w, body2)
		w.Restore(&u)
		return bytes.Equal(before, w.Encode(nil)) && w.Hash() == hashOf(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// hashOf recomputes the world hash from an encoding-equal world: two
// worlds with equal encodings must hash equally, so compare via a fresh
// replay rather than trusting Hash's internal memo.
func hashOf(enc []byte) uint64 { return hash64(enc) }

// Property: applying a step in place (with ApplyUndo) reaches the same
// state as applying it to a clone, and Restore rewinds exactly.
func TestQuickApplyUndoVsClone(t *testing.T) {
	var u Undo
	f := func(prefix []uint8, choice uint8) bool {
		w := pingPongWorldQ()
		walk(w, prefix)
		steps := w.Steps(quickEnv)
		if len(steps) == 0 {
			return true
		}
		s := steps[int(choice)%len(steps)]
		before := w.Encode(nil)

		c := w.Clone()
		if _, err := c.Apply(s); err != nil {
			return false
		}
		if _, err := w.ApplyUndo(s, &u); err != nil {
			return false
		}
		if !bytes.Equal(w.Encode(nil), c.Encode(nil)) {
			return false
		}
		w.Restore(&u)
		return bytes.Equal(before, w.Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode is pure — two identically constructed and identically
// driven worlds encode byte-equal, and re-encoding does not disturb the
// world (the per-machine memo is an invisible cache).
func TestQuickEncodePurity(t *testing.T) {
	f := func(choices []uint8) bool {
		w1 := pingPongWorldQ()
		w2 := pingPongWorldQ()
		walk(w1, choices)
		walk(w2, choices)
		e1 := w1.Encode(nil)
		if !bytes.Equal(e1, w2.Encode(nil)) {
			return false
		}
		// Re-encoding and hashing must not change the image.
		_ = w1.Hash()
		return bytes.Equal(e1, w1.Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mutating a clone (vars, globals, queue contents) never
// leaks into the source — the slab representation shares no mutable
// backing between worlds.
func TestQuickCloneIsolation(t *testing.T) {
	f := func(prefix []uint8, gv int32) bool {
		w := pingPongWorldQ()
		walk(w, prefix)
		before := w.Encode(nil)
		c := w.Clone()
		c.SetGlobal("g.total", int(gv))
		c.SetGlobal("g.fresh", 7) // overflow growth on the clone only
		c.Proc("B").M.SetVar("got", 99)
		c.Proc("B").M.SetVar("novel", 1)
		if err := c.Inject("A", types.Message{Kind: types.MsgPowerOn}); err != nil {
			return false
		}
		return bytes.Equal(before, w.Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
