package check

import (
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// fuzzWorld builds a two-process world with a lossy channel and a few
// globals — enough structure that every component of the canonical
// encoding (machine states, variables, queues, globals) is exercised
// by the byte-driven mutations below.
func fuzzWorld(f interface{ Fatal(...any) }) *model.World {
	spec := &fsm.Spec{
		Name: "fz",
		Init: "A",
		Vars: map[string]int{"x": 0},
		Transitions: []fsm.Transition{
			{Name: "go", From: "A", On: types.MsgUserMove, To: "B"},
			{Name: "back", From: "B", On: types.MsgUserMove, To: "A"},
		},
	}
	w, err := model.New(model.Config{
		Procs: []model.ProcConfig{
			{Name: "P", Spec: spec},
			{Name: "Q", Spec: spec, Lossy: true},
		},
		Globals: map[string]int{"g.a": 0, "g.b": 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	return w
}

// mutate applies one byte-driven mutation to the world and reports
// whether it changed anything. Every branch alters exactly one
// component of the canonical encoding.
func mutate(w *model.World, op, arg byte) bool {
	switch op % 6 {
	case 0:
		w.Proc("P").M.SetVar("x", int(arg))
	case 1:
		w.Proc("Q").M.SetVar("y", int(arg)) // introduces a new var name
	case 2:
		states := []fsm.State{"A", "B"}
		w.Proc("P").M.SetState(states[int(arg)%len(states)])
	case 3:
		w.SetGlobal("g.a", int(arg))
	case 4:
		w.SetGlobal("g.new", int(arg)) // introduces a new global
	case 5:
		w.Chan("Q").Push(types.Message{
			Kind:  types.MsgKind(arg),
			Cause: types.Cause(arg / 3),
			Seq:   uint32(arg) * 7,
			From:  "P",
		})
	}
	return true
}

// FuzzStateHash drives random mutation sequences through the canonical
// encoder and the visited set, asserting the invariants the engines
// rely on:
//
//   - encoding is a function of state: a clone encodes byte-for-byte
//     identically and re-marking a world is never "new";
//   - distinct encodings never silently collide: every snapshot goes
//     through a paranoid visited set, which errors on a hash collision
//     with a different encoding;
//   - min-depth semantics round-trip: re-marking at a shallower depth
//     asks for re-expansion, deeper or equal does not.
func FuzzStateHash(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{5, 200, 5, 201, 5, 202, 1, 9})
	f.Add([]byte{3, 3, 3, 3})
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 0, 4, 255, 0, 128})

	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWorld(t)
		v := newVisitedSet(Options{Paranoid: true})
		var buf []byte
		var err error

		mark := func(w *model.World, depth int) markResult {
			var m markResult
			if m, buf, err = markVisited(v, w, depth, buf); err != nil {
				t.Fatalf("hash collision: %v", err)
			}
			return m
		}

		depth := 1
		snap := w.Clone()
		if m := mark(w, 0); !m.isNew {
			t.Fatal("initial state not new")
		}
		for i := 0; i+1 < len(data); i += 2 {
			mutate(w, data[i], data[i+1])

			// The clone of the previous snapshot must still hash to the
			// stored value: re-marking is a pure revisit.
			if m := mark(snap.Clone(), depth+1); m.isNew {
				t.Fatal("re-marking a cloned snapshot claimed a new state")
			} else if m.expand {
				t.Fatal("re-marking at a deeper depth asked for re-expansion")
			}

			// The mutated world goes in paranoid: a silent collision with
			// any earlier snapshot fails the run. (The mutation may also
			// legitimately revisit an earlier state — both outcomes are
			// fine; only a collision error is not.)
			m := mark(w, depth)
			if m.isNew {
				// Shallower rediscovery of a brand-new state must re-expand.
				if re := mark(w.Clone(), depth-1); re.isNew || !re.expand {
					t.Fatalf("shallower re-mark: isNew=%v expand=%v, want revisit+expand", re.isNew, re.expand)
				}
			}

			// Encoding must be a pure function of state: two fresh clones
			// encode identically.
			e1 := w.Clone().Encode(nil)
			e2 := w.Clone().Encode(nil)
			if string(e1) != string(e2) {
				t.Fatalf("clone encodings differ:\n%q\n%q", e1, e2)
			}
			h1, _ := w.AppendHash(nil)
			h2 := w.Hash()
			if h1 != h2 {
				t.Fatalf("AppendHash %#x != Hash %#x", h1, h2)
			}

			snap = w.Clone()
			depth++
		}

		// Mutating a clone never perturbs the original's hash.
		before := w.Hash()
		c := w.Clone()
		mutate(c, 0, 77)
		mutate(c, 5, 91)
		mutate(c, 4, 13)
		if w.Hash() != before {
			t.Fatal("mutating a clone changed the original's hash")
		}

		// Symmetry leg: the same byte stream drives the namespaced
		// two-replica world (fuzz_sym_test.go) and its mirror image
		// through a canonical paranoid visited set. Permutation-
		// equivalent states must share one visited entry — the mirror
		// of every freshly marked state is a pure revisit — and
		// paranoid mode verifies the stored canonical bytes match, so
		// a same-hash-different-encoding slip fails loudly.
		sw := fuzzSymWorld(t)
		mw := fuzzSymWorld(t)
		sv := newVisitedSet(Options{Paranoid: true, Symmetry: true, Strategy: DFS})
		var sbuf []byte
		smark := func(w *model.World, depth int) markResult {
			var m markResult
			if m, sbuf, err = markVisited(sv, w, depth, sbuf); err != nil {
				t.Fatalf("canonical hash collision: %v", err)
			}
			return m
		}
		if m := smark(sw, 0); !m.isNew {
			t.Fatal("initial sym state not new")
		}
		if m := smark(mw, 1); m.isNew {
			t.Fatal("swap image of the initial state claimed a new entry")
		}
		sdepth := 1
		crossed := false
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] % 13
			if op >= 11 {
				// Cross-replica senders are not canonicalized (see
				// mutateSym): the mirror may legitimately be a new
				// entry from here on. It still goes through the
				// paranoid set — false merges would fail loudly.
				crossed = true
			}
			mutateSym(sw, op, data[i+1])
			mutateSym(mw, symMirror[op], data[i+1])
			smark(sw, sdepth)
			if m := smark(mw, sdepth+1); !crossed {
				if m.isNew {
					t.Fatal("mirror of a visited state claimed a new entry")
				} else if m.expand {
					t.Fatal("mirror re-mark at a deeper depth asked for re-expansion")
				}
			}
			sdepth++
		}
	})
}
