package lint

import (
	"reflect"
	"slices"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// TestProbePanickingGuardOnce is the regression test for the probing
// panic discipline: a transition whose guard panics under some probe
// defaults must still be summarized exactly once — one edge summary
// (effects.EdgeEffects, the one probe lint reads), sends counted once in
// the spec rollup, GuardHolds listing only the defaults that actually
// satisfied the guard, and the facts the recorder captured before each
// panic preserved.
func TestProbePanickingGuardOnce(t *testing.T) {
	s := &fsm.Spec{
		Name: "panicky",
		Init: "A",
		Transitions: []fsm.Transition{
			{
				Name: "t0", From: "A", To: "B", On: types.MsgUserDataOn,
				Guard: func(c fsm.Ctx, e fsm.Event) bool {
					// Reads one global, then panics on every probe
					// default except 2 (mimicking a closure invariant
					// the probe context cannot satisfy).
					v := c.Get("g.mode")
					if v != 2 {
						panic("unexpected mode")
					}
					return true
				},
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Send("peer", types.NewMessage(types.MsgAttachRequest, types.ProtoGMM))
					c.Set("g.done", 1)
				},
			},
		},
	}

	sf := buildSpecFacts(s)
	if len(sf.Edges) != 1 {
		t.Fatalf("spec has %d transition summaries, want exactly 1 (no double count)", len(sf.Edges))
	}
	tf := sf.Edges[0]
	if !tf.Panicked {
		t.Error("Panicked not set for a guard that panics under some probes")
	}
	if len(tf.GuardHolds) != 1 || tf.GuardHolds[0] != 2 {
		t.Errorf("GuardHolds = %v, want [2]: panicked probes must not count as satisfied", tf.GuardHolds)
	}
	if !slices.Contains(tf.Reads, "g.mode") || !sf.Reads["g.mode"] {
		t.Error("read recorded before the panic was lost")
	}
	if len(tf.Sends) != 1 || tf.Sends[0].To != "peer" || tf.Sends[0].Kind != types.MsgAttachRequest {
		t.Errorf("Sends = %v, want exactly one AttachRequest to peer", tf.Sends)
	}
	if len(sf.Sends) != 1 || sf.Sends[0] != (sendFact{To: "peer", Kind: types.MsgAttachRequest}) {
		t.Errorf("spec-level Sends = %v, want the send counted once", sf.Sends)
	}
	if !slices.Contains(tf.Writes, "g.done") || !sf.Writes["g.done"] {
		t.Error("action write not recorded")
	}
}

// TestProbePanickingActionKeepsPartialFacts pins that an action
// panicking mid-run still contributes the sends and writes it made
// before the panic, once.
func TestProbePanickingActionKeepsPartialFacts(t *testing.T) {
	s := &fsm.Spec{
		Name: "panicky-action",
		Init: "A",
		Transitions: []fsm.Transition{
			{
				Name: "t0", From: "A", To: "B", On: types.MsgUserDataOn,
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("g.before", 1)
					c.Send("peer", types.NewMessage(types.MsgDetachRequest, types.ProtoGMM))
					panic("boom")
				},
			},
		},
	}
	sf := buildSpecFacts(s)
	tf := sf.Edges[0]
	if !tf.Panicked {
		t.Error("Panicked not set for a panicking action")
	}
	if !slices.Contains(tf.Writes, "g.before") || !sf.Writes["g.before"] {
		t.Error("write before the panic was lost")
	}
	if len(tf.Sends) != 1 || len(sf.Sends) != 1 {
		t.Errorf("Sends = %v, want the pre-panic send exactly once across all probes", tf.Sends)
	}
	if !reflect.DeepEqual(tf.GuardHolds, []int{0, 1, 2, 3, 16, 64}) {
		t.Errorf("GuardHolds = %v: an unguarded transition is satisfied under every probe regardless of action panics", tf.GuardHolds)
	}
}
