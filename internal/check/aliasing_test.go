package check

import (
	"testing"

	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

type alwaysProp struct{}

func (alwaysProp) Name() string                          { return "Always" }
func (alwaysProp) Check(*model.World, model.Step) string { return "always violated" }

// TestViolationPathIsolation captures a violation and then rewrites the
// path nodes it was built from, the way the DFS and walk drivers reuse
// their per-depth nodes while exploring sibling branches. The stored
// counterexample must be a deep copy, untouched by any of it.
func TestViolationPathIsolation(t *testing.T) {
	w := counterWorld(t)
	e, _, err := newEngine(w, []Property{alwaysProp{}}, moveScenario(), Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}

	// A two-node path in reusable storage, with per-step notes.
	step := func(note string) model.Step {
		return model.Step{Kind: model.StepEnv, Proc: "C", Label: "inc",
			Msg: types.Message{Kind: types.MsgUserMove}, Notes: []string{note}}
	}
	nodes := make([]pathNode, 2)
	nodes[0] = pathNode{step: step("original note 0")}
	last := step("original note 1")
	if !e.checkProps(w, &nodes[0], last) {
		t.Fatal("property did not trigger")
	}
	if len(e.violations) != 1 {
		t.Fatalf("got %d violations, want 1", len(e.violations))
	}

	// Simulate the driver moving on: a sibling takes over the nodes and
	// the applied step's notes are scribbled on.
	nodes[0].step.Proc = "CORRUPTED"
	nodes[0].step.Label = "corrupted"
	nodes[0].step.Notes[0] = "corrupted note"
	nodes[1] = pathNode{prev: &nodes[0], step: model.Step{Proc: "C", Label: "sibling"}}
	last.Notes[0] = "corrupted note"
	last.Msg.Kind = types.MsgPowerOff

	got := e.violations[0].Path
	if len(got) != 2 {
		t.Fatalf("captured path has %d steps, want 2", len(got))
	}
	if got[0].Proc != "C" || got[0].Label != "inc" || got[0].Notes[0] != "original note 0" {
		t.Errorf("step 0 corrupted by node reuse: %+v", got[0])
	}
	if got[1].Notes[0] != "original note 1" {
		t.Errorf("step 1 notes corrupted by node reuse: %q", got[1].Notes[0])
	}
	if got[1].Msg.Kind != types.MsgUserMove {
		t.Errorf("step 1 message corrupted by node reuse: %v", got[1].Msg.Kind)
	}
}

// TestStepArenaSiblingsIndependent asserts two siblings extended from
// one parent node are independent chains: each materializes its own
// path, and mutating one materialization never shows through the other
// or through the shared parent node.
func TestStepArenaSiblingsIndependent(t *testing.T) {
	var arena stepArena
	parent := arena.append(nil, model.Step{Proc: "C", Label: "root", Notes: []string{"n"}})
	a := arena.append(parent, model.Step{Proc: "C", Label: "left"})
	b := arena.append(parent, model.Step{Proc: "C", Label: "right"})
	if pathLen(a) != 2 || pathLen(b) != 2 {
		t.Fatalf("path lengths: a=%d b=%d, want 2", pathLen(a), pathLen(b))
	}
	pa, pb := materializePath(a), materializePath(b)
	if pa[1].Label != "left" || pb[1].Label != "right" {
		t.Fatalf("sibling steps collided: a=%q b=%q", pa[1].Label, pb[1].Label)
	}
	pa[0].Label = "rewritten"
	pa[0].Notes[0] = "scribbled"
	if pb[0].Label != "root" || pb[0].Notes[0] != "n" {
		t.Error("materialized siblings shared steps or notes")
	}
	if parent.step.Label != "root" || parent.step.Notes[0] != "n" {
		t.Error("materialized path aliased the arena node")
	}
}

// TestStepArenaChunking asserts chains longer than one arena chunk stay
// intact: nodes allocated across chunk boundaries keep valid prev links.
func TestStepArenaChunking(t *testing.T) {
	var arena stepArena
	var tail *pathNode
	const n = stepArenaChunk*2 + 7
	for i := 0; i < n; i++ {
		tail = arena.append(tail, model.Step{Label: "s"})
	}
	if got := pathLen(tail); got != n {
		t.Fatalf("pathLen = %d, want %d", got, n)
	}
	if got := len(materializePath(tail)); got != n {
		t.Fatalf("materialized %d steps, want %d", got, n)
	}
}
