package fsm

import (
	"testing"

	"cnetverifier/internal/types"
)

func analysisSpec() *Spec {
	return &Spec{
		Name: "analysis",
		Init: "A",
		Transitions: []Transition{
			{Name: "ab", From: "A", On: types.MsgPowerOn, To: "B"},
			{Name: "bc", From: "B", On: types.MsgPowerOff, To: "C",
				Guard: func(c Ctx, e Event) bool { return true }},
			{Name: "self", From: "C", On: types.MsgUserMove, To: Same},
			{Name: "reset", From: Any, On: types.MsgPeriodicTimer, To: "A"},
		},
	}
}

func TestEvents(t *testing.T) {
	evs := analysisSpec().Events()
	if len(evs) != 4 {
		t.Fatalf("events = %v", evs)
	}
}
