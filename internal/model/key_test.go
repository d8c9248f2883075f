package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// TestInternerConcurrent: goroutines interning overlapping piece sets
// all get one id and one hash per content, the ids are dense, and each
// hash is the content's hash64. Run under -race it also checks that the
// lock-free read path and the snapshot folds do not race.
func TestInternerConcurrent(t *testing.T) {
	const (
		goroutines = 4
		span       = 600 // pieces per goroutine; neighbours overlap by half
		rounds     = 3
	)
	in := NewInterner()
	got := make([]map[string]piece, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make(map[string]piece)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := g * span / 2; k < g*span/2+span; k++ {
					b := []byte(fmt.Sprintf("piece-%04d", k))
					p := in.intern(kindReplica, b, nil, 0)
					if prev, ok := got[g][string(b)]; ok && prev != p {
						t.Errorf("goroutine %d: %s interned as %+v, then %+v", g, b, prev, p)
						return
					}
					got[g][string(b)] = p
				}
			}
		}(g)
	}
	wg.Wait()
	want := (goroutines + 1) * span / 2
	if in.Len() != want {
		t.Fatalf("Len = %d, want %d distinct pieces", in.Len(), want)
	}
	ids := make(map[uint32]string)
	for g := range got {
		for content, p := range got[g] {
			if p.hash != hash64([]byte(content)) {
				t.Fatalf("%s: hash %#x, want hash64 %#x", content, p.hash, hash64([]byte(content)))
			}
			if int(p.id) >= want {
				t.Fatalf("%s: id %d not dense below %d", content, p.id, want)
			}
			if prev, ok := ids[p.id]; ok && prev != content {
				t.Fatalf("id %d given to %s and %s", p.id, prev, content)
			}
			ids[p.id] = content
			for h := range got {
				if q, ok := got[h][content]; ok && q != p {
					t.Fatalf("%s: goroutine %d saw %+v, goroutine %d %+v", content, g, p, h, q)
				}
			}
		}
	}
}

// keyTrail drives a fresh symmetric world along a fixed schedule and
// returns a clone of every state it passes through.
func keyTrail(t testing.TB, timed bool) []*World {
	mk := newSymWorld
	if timed {
		mk = newTimedSymWorld
	}
	w, events := mk(t, 3)
	trail := []*World{w.Clone()}
	for _, b := range []byte{1, 0, 2, 4, 3, 1, 0, 2, 5, 7, 1, 3, 6, 0, 2} {
		steps := w.Steps(events)
		if len(steps) == 0 {
			break
		}
		if _, err := w.Apply(steps[int(b)%len(steps)]); err != nil {
			t.Fatal(err)
		}
		trail = append(trail, w.Clone())
	}
	return trail
}

// TestKeyFingerprintIndependentOfInterningOrder: two interners that
// meet the same states in opposite orders number the pieces
// differently, yet every state gets the same fingerprint from both,
// plain and canonical — the property that keeps -stats output and
// table placement from depending on exploration order or workers.
func TestKeyFingerprintIndependentOfInterningOrder(t *testing.T) {
	for _, timed := range []bool{false, true} {
		trail := keyTrail(t, timed)
		type fps struct{ plain, canon uint64 }
		keyAll := func(order []int) ([]fps, *Interner) {
			in := NewInterner()
			out := make([]fps, len(trail))
			for _, i := range order {
				w := trail[i].Clone()
				out[i].plain, _ = w.AppendKey(in, nil)
				out[i].canon, _ = w.AppendCanonicalKey(in, nil)
			}
			return out, in
		}
		fwd, rev := make([]int, len(trail)), make([]int, len(trail))
		for i := range trail {
			fwd[i], rev[len(trail)-1-i] = i, i
		}
		a, ina := keyAll(fwd)
		b, inb := keyAll(rev)
		for i := range trail {
			if a[i] != b[i] {
				t.Fatalf("timed=%v state %d: fingerprints %+v vs %+v under two interning orders", timed, i, a[i], b[i])
			}
		}
		// The orders really did differ: some state keys differently.
		differ := false
		for _, w := range trail {
			_, ka := w.Clone().AppendKey(ina, nil)
			_, kb := w.Clone().AppendKey(inb, nil)
			differ = differ || !bytes.Equal(ka, kb)
		}
		if !differ {
			t.Fatalf("timed=%v: both interners numbered every piece alike; the test is vacuous", timed)
		}
	}
}

// TestKeyDistinguishesWhatEncodingDistinguishes: over a trail of states
// under one interner, keys are equal exactly when encodings are, plain
// and canonical; and without a symmetry descriptor the canonical key is
// the plain one.
func TestKeyDistinguishesWhatEncodingDistinguishes(t *testing.T) {
	trail := keyTrail(t, true)
	led := newKeyLedger(NewInterner())
	for i, w := range trail {
		if err := led.note(w); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
	}
	if len(led.plain) < 5 {
		t.Fatalf("only %d distinct plain keys along the trail", len(led.plain))
	}
	w := trail[len(trail)-1].Clone()
	if err := w.SetSymmetry(nil); err != nil {
		t.Fatal(err)
	}
	hp, kp := w.AppendKey(led.in, nil)
	hc, kc := w.AppendCanonicalKey(led.in, nil)
	if hp != hc || !bytes.Equal(kp, kc) {
		t.Fatal("canonical key of a world without symmetry differs from its plain key")
	}
}

// TestAppendKeyAllocFree: keying a state in the checker's apply/undo
// cycle allocates nothing once the caches and the interner are warm,
// plain and canonical.
func TestAppendKeyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	for _, timed := range []bool{false, true} {
		mk := newSymWorld
		if timed {
			mk = newTimedSymWorld
		}
		w, events := mk(t, 3)
		driveSym(t, w, events, []byte{1, 0, 2, 4, 3, 1, 0, 2})
		in := NewInterner()
		var u Undo
		var steps []Step
		var buf []byte
		cycle := func() {
			steps = w.StepsAppend(steps[:0], events)
			w.Save(&u)
			for _, s := range steps {
				if _, err := w.Apply(s); err != nil {
					t.Fatal(err)
				}
				_, buf = w.AppendKey(in, buf)
				_, buf = w.AppendCanonicalKey(in, buf)
				w.Restore(&u)
			}
		}
		cycle() // intern the pieces, warm the caches
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("timed=%v: keying allocates %.1f per node in steady state", timed, allocs)
		}
	}
}

// TestLoadKeyPieceKinds: an empty inbox and an empty globals section
// both encode as 00 00, yet they are pieces of different kinds — each
// keeps the value of its own kind. Whichever is interned first, the
// key gives them different ids, and loading the key gives the inbox an
// empty queue and the globals the world's own layout.
func TestLoadKeyPieceKinds(t *testing.T) {
	spec := &fsm.Spec{Name: "echo", Init: "IDLE", Transitions: []fsm.Transition{
		{Name: "move", From: "IDLE", On: types.MsgUserMove, To: fsm.Same},
	}}
	w, err := New(Config{Procs: []ProcConfig{{Name: "ue", Spec: spec}}})
	if err != nil {
		t.Fatal(err)
	}
	busy := w.Clone()
	if err := busy.Inject("ue", types.Message{Kind: types.MsgUserMove, From: "env"}); err != nil {
		t.Fatal(err)
	}
	for _, first := range []*World{w, busy} { // the empty inbox first, then the globals first
		in := NewInterner()
		first.Clone().AppendKey(in, nil)
		_, key := w.AppendKey(in, nil)
		var ids [3]uint32
		rest := key
		for i := range ids {
			ids[i], rest = nextID(rest)
		}
		if len(rest) != 0 || ids[1] == ids[2] {
			t.Fatalf("key %x: the empty inbox and the empty globals share piece %d", key, ids[1])
		}
		twin := busy.Clone()
		twin.LoadKey(in, key)
		if !bytes.Equal(twin.Encode(nil), w.Encode(nil)) || len(twin.Chans[0].queue) != 0 || twin.glay != w.glay {
			t.Fatalf("loaded world: queue %v, layout %p (want empty, %p)", twin.Chans[0].queue, twin.glay, w.glay)
		}
	}
}

// TestLoadKeyConcurrent: goroutines walking their own copies of one
// world key every state they pass under one interner and load each key
// into a world of their own, while the others intern overlapping
// pieces. Every loaded world encodes like the state it was keyed from.
// Run under -race it checks that a piece's value is published before
// its id can be seen.
func TestLoadKeyConcurrent(t *testing.T) {
	for _, dw := range deltaWorlds {
		root, events := dw.make(t, 3)
		in := NewInterner()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			w, twin := root.Clone(), root.Clone()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				var key []byte
				for i := 0; i < 300; i++ {
					steps := w.Steps(events)
					if len(steps) == 0 || i%60 == 0 {
						root.Clone().CloneInto(w) // start over: revisit the shared pieces
						continue
					}
					if _, err := w.Apply(steps[rng.Intn(len(steps))]); err != nil {
						t.Error(err)
						return
					}
					_, key = w.AppendKey(in, key)
					twin.LoadKey(in, key)
					if !bytes.Equal(twin.Encode(nil), w.Encode(nil)) {
						t.Errorf("%s goroutine %d step %d: the loaded world encodes differently", dw.name, g, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestLoadKeyAllocFree: rebuilding frontier states from their keys, as
// the layered search does for every node, allocates nothing once the
// loading world's storage has grown to fit them.
func TestLoadKeyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	for _, dw := range deltaWorlds {
		in := NewInterner()
		var keys [][]byte
		trail := keyTrail(t, dw.name == "timed")
		for _, w := range trail {
			_, key := w.AppendKey(in, nil)
			keys = append(keys, key)
		}
		w := trail[0].Clone()
		var buf []byte
		cycle := func() {
			for _, key := range keys {
				w.LoadKey(in, key)
				_, buf = w.AppendKey(in, buf)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Fatalf("%s: loading and re-keying %d states allocates %.1f", dw.name, len(keys), allocs)
		}
	}
}
