package fsm_test

import (
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/lint"
	"cnetverifier/internal/types"
)

// findingStates lists, in report order, the states lint reports under
// the rule for the spec. Unreachable and dead-end states of a spec's
// transition graph are lint rules SPEC004 and SPEC005.
func findingStates(s *fsm.Spec, rule string) []string {
	var out []string
	for _, f := range lint.Spec(s, lint.Options{}).ByRule(rule) {
		out = append(out, f.State)
	}
	return out
}

func TestUnreachableStates(t *testing.T) {
	s := &fsm.Spec{
		Name: "orphan",
		Init: "A",
		Transitions: []fsm.Transition{
			{Name: "ab", From: "A", On: types.MsgPowerOn, To: "B"},
			// X→Y exists but nothing ever reaches X.
			{Name: "xy", From: "X", On: types.MsgPowerOff, To: "Y"},
		},
	}
	got := findingStates(s, lint.RuleUnreachableState)
	if len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("unreachable = %v, want [X Y]", got)
	}
}

func TestDeadEndStates(t *testing.T) {
	s := &fsm.Spec{
		Name: "dead",
		Init: "A",
		Transitions: []fsm.Transition{
			{Name: "ab", From: "A", On: types.MsgPowerOn, To: "B"},
		},
	}
	got := findingStates(s, lint.RuleDeadEndState)
	if len(got) != 1 || got[0] != "B" {
		t.Fatalf("dead ends = %v, want [B]", got)
	}
	// A wildcard transition rescues every state.
	s.Transitions = append(s.Transitions,
		fsm.Transition{Name: "reset", From: fsm.Any, On: types.MsgPeriodicTimer, To: "A"})
	if got := findingStates(s, lint.RuleDeadEndState); len(got) != 0 {
		t.Fatalf("dead ends = %v, want none", got)
	}
}
