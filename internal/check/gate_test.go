package check

import (
	"reflect"
	"strings"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// deadLetterWorld wires a sender whose message kind the receiver
// handles in no state — the lint prescreen must refuse to explore it.
func deadLetterWorld(t *testing.T) *model.World {
	t.Helper()
	sender := &fsm.Spec{Name: "sender", Init: "A", Transitions: []fsm.Transition{
		{Name: "send", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) {
				c.Send("ue.b", types.Message{Kind: types.MsgAttachRequest})
			}},
	}}
	recv := &fsm.Spec{Name: "recv", Init: "A", Transitions: []fsm.Transition{
		{Name: "h", From: "A", On: types.MsgAttachAccept, To: "A"},
	}}
	w, err := model.New(model.Config{Procs: []model.ProcConfig{
		{Name: "ue.a", Spec: sender},
		{Name: "ue.b", Spec: recv},
	}})
	if err != nil {
		t.Fatalf("model.New: %v", err)
	}
	return w
}

func TestPrescreenRefusesBrokenWorld(t *testing.T) {
	w := deadLetterWorld(t)
	_, err := Run(w, nil, nil, Options{MaxDepth: 3})
	if err == nil {
		t.Fatalf("Run explored a world with a dead-letter send")
	}
	if !strings.Contains(err.Error(), "MSG001") || !strings.Contains(err.Error(), "SkipLint") {
		t.Errorf("gate error should name the rule and the escape hatch: %v", err)
	}
}

func TestPrescreenSkipLint(t *testing.T) {
	w := deadLetterWorld(t)
	res, err := Run(w, nil, nil, Options{MaxDepth: 3, SkipLint: true})
	if err != nil {
		t.Fatalf("Run with SkipLint: %v", err)
	}
	if res.States == 0 {
		t.Errorf("SkipLint run explored no states")
	}
}

func TestPrescreenSuppression(t *testing.T) {
	w := deadLetterWorld(t)
	_, err := Run(w, nil, nil, Options{MaxDepth: 3,
		LintSuppress: map[string][]string{"ue.a": {"MSG001"}}})
	if err != nil {
		t.Fatalf("Run with MSG001 suppressed for ue.a: %v", err)
	}
}

// TestOptionsIsZero sets each Options field non-zero in turn, by
// reflection, so a field added to Options but not to IsZero fails here
// instead of making core.Screen silently swap in the world's defaults.
func TestOptionsIsZero(t *testing.T) {
	if !(Options{}).IsZero() {
		t.Errorf("zero Options not IsZero")
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		var o Options
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch {
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(1)
		case f.CanUint():
			f.SetUint(1)
		case f.Kind() == reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
		case f.Kind() == reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("Options.%s: no non-zero value for kind %s", typ.Field(i).Name, f.Kind())
		}
		if o.IsZero() {
			t.Errorf("Options with only %s set reported IsZero", typ.Field(i).Name)
		}
	}
}
