package check

import (
	"bytes"
	"strings"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// fuzzSymWorld builds the namespaced two-replica world the symmetry
// fuzz targets mutate: replicas r1/r2 run the same spec rewritten into
// the n1/n2 globals namespaces (the multi-UE sub-slab layout in
// miniature) around one shared global, with the matching descriptor
// attached.
func fuzzSymWorld(f interface{ Fatal(...any) }) *model.World {
	spec := &fsm.Spec{
		Name: "fzr",
		Init: "A",
		Vars: map[string]int{"x": 0},
		Transitions: []fsm.Transition{
			{Name: "go", From: "A", On: types.MsgUserMove, To: "B",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("g.v", c.Get("g.v")+1)
				}},
			{Name: "back", From: "B", On: types.MsgUserMove, To: "A"},
		},
	}
	w, err := model.New(model.Config{
		Procs: []model.ProcConfig{
			{Name: "r1", Spec: fsm.NamespaceGlobals(spec, "n1")},
			{Name: "r2", Spec: fsm.NamespaceGlobals(spec, "n2")},
		},
		Globals: map[string]int{"g.s": 0},
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.SetSymmetry(&model.Symmetry{Groups: []model.SymGroup{{
		Replicas: []model.SymReplica{
			{Procs: []string{"r1"}, NS: "n1", Atoms: []string{"r1"}},
			{Procs: []string{"r2"}, NS: "n2", Atoms: []string{"r2"}},
		},
	}}}); err != nil {
		f.Fatal(err)
	}
	return w
}

// symMirror maps each mutateSym op to its image under the replica swap:
// mutating with symMirror[op] does to r2 exactly what op does to r1 and
// vice versa, with replica-neutral ops (the shared global) fixed. A
// mutation stream and its mirror therefore build a state and its exact
// swap image.
var symMirror = [13]byte{1, 0, 3, 2, 5, 4, 6, 8, 7, 10, 9, 12, 11}

// mutateSym applies one byte-driven mutation to the two-replica world.
// Every component of the canonical sub-encoding is reachable: machine
// state and vars per replica, namespaced and shared globals, and queued
// messages with an intra-replica, external, or cross-replica sender
// (the last is deliberately NOT canonicalized — replica-labeled senders
// outside their own replica only under-merge, never falsely merge).
func mutateSym(w *model.World, op, arg byte) {
	push := func(ch, from string) {
		c := w.Chan(ch)
		c.Push(types.Message{
			Kind:  types.MsgKind(arg),
			Cause: types.Cause(arg / 3),
			Seq:   uint32(arg) * 7,
			From:  from,
			To:    ch,
		})
	}
	states := []fsm.State{"A", "B"}
	switch op % 13 {
	case 0:
		w.Proc("r1").M.SetVar("x", int(arg))
	case 1:
		w.Proc("r2").M.SetVar("x", int(arg))
	case 2:
		w.Proc("r1").M.SetState(states[int(arg)%len(states)])
	case 3:
		w.Proc("r2").M.SetState(states[int(arg)%len(states)])
	case 4:
		w.SetGlobal("g.n1.v", int(arg))
	case 5:
		w.SetGlobal("g.n2.v", int(arg))
	case 6:
		w.SetGlobal("g.s", int(arg))
	case 7:
		push("r1", "r1")
	case 8:
		push("r2", "r2")
	case 9:
		push("r1", "env")
	case 10:
		push("r2", "env")
	case 11:
		push("r1", "r2")
	case 12:
		push("r2", "r1")
	}
}

// swapSymWorld constructs the swap image of a two-replica world from
// scratch: machine states, queues and globals of r1/n1 land on r2/n2
// and vice versa, message endpoints renamed, shared state positional.
func swapSymWorld(f interface{ Fatal(...any) }, w *model.World) *model.World {
	out := fuzzSymWorld(f)
	rename := func(s string) string {
		switch s {
		case "r1":
			return "r2"
		case "r2":
			return "r1"
		}
		return s
	}
	for _, name := range []string{"r1", "r2"} {
		sp, dp := w.Proc(name), out.Proc(rename(name))
		dp.M.SetState(sp.M.State())
		dp.M.SetVar("x", sp.M.Var("x"))
		sc, dc := w.Chan(name), out.Chan(rename(name))
		for _, m := range sc.Messages() {
			m.From = rename(m.From)
			m.To = rename(m.To)
			dc.Push(m)
		}
	}
	for name, v := range w.GlobalsMap() {
		switch {
		case strings.HasPrefix(name, "g.n1."):
			name = "g.n2." + name[len("g.n1."):]
		case strings.HasPrefix(name, "g.n2."):
			name = "g.n1." + name[len("g.n2."):]
		}
		out.SetGlobal(name, v)
	}
	return out
}

// symEquivalent reports whether some replica permutation of b (for two
// replicas: identity or the swap) has the same plain encoding as a.
// Plain encodings embed global names, so they compare across worlds.
func symEquivalent(f interface{ Fatal(...any) }, a, b *model.World) bool {
	pa := a.Encode(nil)
	return bytes.Equal(pa, b.Encode(nil)) ||
		bytes.Equal(pa, swapSymWorld(f, b).Encode(nil))
}

// FuzzSymCanonical asserts the two directions of the canonicalization
// contract on byte-driven mutation sequences:
//
//   - completeness: a mutation stream and its mirrored stream build a
//     state and its exact swap image, whose canonical encodings (and
//     hashes) MUST collide;
//   - soundness: whenever canonical encodings collide — by mirror
//     construction or between independently driven worlds — the plain
//     encodings must be related by a replica permutation. A collision
//     without permutation-equivalence would make the quotient search
//     merge genuinely different states.
func FuzzSymCanonical(f *testing.F) {
	f.Add([]byte{0, 7, 1, 7, 6, 3})
	f.Add([]byte{7, 200, 8, 200, 11, 50, 12, 50})
	f.Add([]byte{4, 9, 5, 9, 2, 1, 3, 1})
	f.Add([]byte{9, 13, 10, 13, 0, 255})
	f.Add([]byte{})
	f.Add([]byte{11, 90, 4, 17, 3, 1, 6, 6, 12, 90})

	f.Fuzz(func(t *testing.T, data []byte) {
		w1 := fuzzSymWorld(t)
		w2 := fuzzSymWorld(t)
		w3 := fuzzSymWorld(t)
		crossed := false
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] % 13
			if op >= 11 {
				// Cross-replica senders encode by raw name, so a state
				// and its swap image legitimately keep distinct
				// canonical encodings (under-merging; see mutateSym).
				// Completeness below is asserted only without them.
				crossed = true
			}
			mutateSym(w1, op, data[i+1])
			mutateSym(w2, symMirror[op], data[i+1])
			mutateSym(w3, (op+5)%13, data[i+1])
		}

		c1 := w1.EncodeCanonical(nil)
		if !crossed {
			if !bytes.Equal(c1, w2.EncodeCanonical(nil)) {
				t.Fatal("mirrored mutation stream does not canonicalize to the same bytes")
			}
			if w1.CanonicalHash() != w2.CanonicalHash() {
				t.Fatal("mirrored mutation stream canonical hashes differ")
			}
		}
		if bytes.Equal(c1, w2.EncodeCanonical(nil)) && !symEquivalent(t, w1, w2) {
			t.Fatal("mirror-built collision is not permutation-equivalent")
		}

		if bytes.Equal(c1, w3.EncodeCanonical(nil)) {
			if !symEquivalent(t, w1, w3) {
				t.Fatal("canonical collision between non-permutation-equivalent states")
			}
		}

		// EncodeCanonical must be a pure function of state, like Encode.
		if !bytes.Equal(c1, w1.Clone().EncodeCanonical(nil)) {
			t.Fatal("clone canonicalizes differently")
		}
	})
}
