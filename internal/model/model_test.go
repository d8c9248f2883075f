package model

import (
	"bytes"
	"testing"
	"testing/quick"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// pingSpec sends MsgPowerOn to a peer when poked.
func pingSpec(peer string) *fsm.Spec {
	return &fsm.Spec{
		Name: "ping",
		Init: "IDLE",
		Transitions: []fsm.Transition{
			{Name: "poke", From: "IDLE", On: types.MsgUserDataOn, To: "SENT",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Send(peer, types.Message{Kind: types.MsgPowerOn})
				}},
		},
	}
}

func pongSpec() *fsm.Spec {
	return &fsm.Spec{
		Name: "pong",
		Init: "WAIT",
		Vars: map[string]int{"got": 0},
		Transitions: []fsm.Transition{
			{Name: "recv", From: "WAIT", On: types.MsgPowerOn, To: "DONE",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("got", 1)
					c.Set("g.total", c.Get("g.total")+1)
				}},
		},
	}
}

func pingPongWorld(t *testing.T, lossy bool) *World {
	t.Helper()
	w, err := New(Config{
		Procs: []ProcConfig{
			{Name: "A", Spec: pingSpec("B")},
			{Name: "B", Spec: pongSpec(), Lossy: lossy},
		},
		Globals: map[string]int{"g.total": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: []ProcConfig{{Name: "", Spec: pongSpec()}}}); err == nil {
		t.Fatal("empty proc name accepted")
	}
	if _, err := New(Config{Procs: []ProcConfig{
		{Name: "X", Spec: pongSpec()},
		{Name: "X", Spec: pongSpec()},
	}}); err == nil {
		t.Fatal("duplicate proc name accepted")
	}
	if _, err := New(Config{Procs: []ProcConfig{
		{Name: "X", Spec: pongSpec(), OutputTo: []string{"nope"}},
	}}); err == nil {
		t.Fatal("unknown OutputTo accepted")
	}
	if _, err := New(Config{Procs: []ProcConfig{
		{Name: "X", Spec: &fsm.Spec{Name: "bad"}},
	}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestDeliveryFlow(t *testing.T) {
	w := pingPongWorld(t, false)
	env := []EnvEvent{{Proc: "A", Msg: types.Message{Kind: types.MsgUserDataOn}}}

	steps := w.Steps(env)
	if len(steps) != 1 || steps[0].Kind != StepEnv {
		t.Fatalf("initial steps = %v, want one env step", steps)
	}
	if _, err := w.Apply(steps[0]); err != nil {
		t.Fatal(err)
	}
	if w.Proc("A").M.State() != "SENT" {
		t.Fatalf("A state = %s", w.Proc("A").M.State())
	}
	if w.QueueLen("B") != 1 {
		t.Fatalf("B queue = %d, want 1", w.QueueLen("B"))
	}

	steps = w.Steps(nil)
	if len(steps) != 1 || steps[0].Kind != StepDeliver {
		t.Fatalf("steps = %v, want one deliver", steps)
	}
	applied, err := w.Apply(steps[0])
	if err != nil {
		t.Fatal(err)
	}
	if applied.Label != "recv" {
		t.Fatalf("label = %s, want recv", applied.Label)
	}
	if w.Proc("B").M.Var("got") != 1 {
		t.Fatal("B did not record receipt")
	}
	if w.Global("g.total") != 1 {
		t.Fatalf("global total = %d, want 1", w.Global("g.total"))
	}
	if !w.Quiescent() {
		t.Fatal("world should be quiescent")
	}
}

func TestLossyChannelOffersDrop(t *testing.T) {
	w := pingPongWorld(t, true)
	if err := w.Inject("B", types.Message{Kind: types.MsgPowerOn}); err != nil {
		t.Fatal(err)
	}
	steps := w.Steps(nil)
	var kinds []StepKind
	for _, s := range steps {
		kinds = append(kinds, s.Kind)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %v, want deliver+drop", kinds)
	}
	hasDeliver, hasDrop := false, false
	for _, s := range steps {
		switch s.Kind {
		case StepDeliver:
			hasDeliver = true
		case StepDrop:
			hasDrop = true
		}
	}
	if !hasDeliver || !hasDrop {
		t.Fatalf("steps = %v, want deliver and drop", kinds)
	}
	// Dropping leaves machine state unchanged.
	for _, s := range steps {
		if s.Kind == StepDrop {
			if _, err := w.Apply(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w.Proc("B").M.State() != "WAIT" || w.QueueLen("B") != 0 {
		t.Fatal("drop should consume message without transition")
	}
}

func TestDiscardUnhandled(t *testing.T) {
	w := pingPongWorld(t, false)
	// B has no transition on MsgPowerOff.
	if err := w.Inject("B", types.Message{Kind: types.MsgPowerOff}); err != nil {
		t.Fatal(err)
	}
	steps := w.Steps(nil)
	if len(steps) != 1 || steps[0].Kind != StepDiscard {
		t.Fatalf("steps = %v, want one discard", steps)
	}
	if _, err := w.Apply(steps[0]); err != nil {
		t.Fatal(err)
	}
	if w.QueueLen("B") != 0 {
		t.Fatal("discard should drain the message")
	}
}

func TestReorderPositions(t *testing.T) {
	w, err := New(Config{Procs: []ProcConfig{
		{Name: "B", Spec: pongSpec(), Reorder: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.Inject("B", types.Message{Kind: types.MsgPowerOff}) // unhandled
	w.Inject("B", types.Message{Kind: types.MsgPowerOn})  // handled
	steps := w.Steps(nil)
	// Position 0: discard (PowerOff). Position 1: deliver (PowerOn).
	var sawPos1Deliver bool
	for _, s := range steps {
		if s.Kind == StepDeliver && s.Pos == 1 {
			sawPos1Deliver = true
		}
	}
	if !sawPos1Deliver {
		t.Fatalf("reorder channel should offer delivery at position 1: %v", steps)
	}
}

func TestHeadOnlyWithoutReorder(t *testing.T) {
	w := pingPongWorld(t, false)
	w.Inject("B", types.Message{Kind: types.MsgPowerOff})
	w.Inject("B", types.Message{Kind: types.MsgPowerOn})
	for _, s := range w.Steps(nil) {
		if s.Pos != 0 {
			t.Fatalf("FIFO channel offered non-head position: %v", s)
		}
	}
}

func TestCapacityOverflowDrops(t *testing.T) {
	w, err := New(Config{Procs: []ProcConfig{
		{Name: "A", Spec: pingSpec("C")},
		{Name: "C", Spec: pongSpec(), Cap: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fill C's inbox to capacity, then have A send: the send must
	// be dropped and the overflow noted on the applied step.
	w.Inject("C", types.Message{Kind: types.MsgPowerOff})
	steps := w.Steps([]EnvEvent{{Proc: "A", Msg: types.Message{Kind: types.MsgUserDataOn}}})
	var envStep *Step
	for i := range steps {
		if steps[i].Kind == StepEnv {
			envStep = &steps[i]
		}
	}
	if envStep == nil {
		t.Fatalf("no env step in %v", steps)
	}
	applied, err := w.Apply(*envStep)
	if err != nil {
		t.Fatal(err)
	}
	if w.QueueLen("C") != 1 {
		t.Fatalf("C queue = %d, want 1 (overflow dropped)", w.QueueLen("C"))
	}
	if len(applied.Notes) == 0 {
		t.Fatal("overflow drop should leave a note on the step")
	}
}

func TestOutputFanout(t *testing.T) {
	outSpec := &fsm.Spec{
		Name: "out",
		Init: "A",
		Transitions: []fsm.Transition{
			{Name: "emit", From: "A", On: types.MsgUserDataOn, To: "B",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Output(types.Message{Kind: types.MsgPowerOn})
				}},
		},
	}
	w, err := New(Config{Procs: []ProcConfig{
		{Name: "L", Spec: outSpec, OutputTo: []string{"P", "Q"}},
		{Name: "P", Spec: pongSpec()},
		{Name: "Q", Spec: pongSpec()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	steps := w.Steps([]EnvEvent{{Proc: "L", Msg: types.Message{Kind: types.MsgUserDataOn}}})
	if len(steps) != 1 {
		t.Fatalf("steps = %v", steps)
	}
	if _, err := w.Apply(steps[0]); err != nil {
		t.Fatal(err)
	}
	if w.QueueLen("P") != 1 || w.QueueLen("Q") != 1 {
		t.Fatalf("fanout queues P=%d Q=%d, want 1,1", w.QueueLen("P"), w.QueueLen("Q"))
	}
	msg := w.Chan("P").Messages()[0]
	if msg.From != "L" {
		t.Fatalf("From = %q, want L", msg.From)
	}
}

func TestCloneIsolation(t *testing.T) {
	w := pingPongWorld(t, false)
	w.Inject("B", types.Message{Kind: types.MsgPowerOn})
	w.SetGlobal("g.total", 5)
	c := w.Clone()
	steps := c.Steps(nil)
	if _, err := c.Apply(steps[0]); err != nil {
		t.Fatal(err)
	}
	c.SetGlobal("g.total", 99)
	if w.QueueLen("B") != 1 {
		t.Fatal("clone drained original queue")
	}
	if w.Proc("B").M.State() != "WAIT" {
		t.Fatal("clone mutated original machine")
	}
	if w.Global("g.total") != 5 {
		t.Fatal("clone mutated original globals")
	}
}

func TestEncodeHashDistinguishStates(t *testing.T) {
	a := pingPongWorld(t, false)
	b := pingPongWorld(t, false)
	if !bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		t.Fatal("fresh identical worlds encode differently")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("fresh identical worlds hash differently")
	}
	b.Inject("B", types.Message{Kind: types.MsgPowerOn})
	if bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		t.Fatal("queued message not reflected in encoding")
	}
	a.Inject("B", types.Message{Kind: types.MsgPowerOn})
	if a.Hash() != b.Hash() {
		t.Fatal("equal worlds hash differently")
	}
	a.SetGlobal("g.total", 3)
	if a.Hash() == b.Hash() {
		t.Fatal("global change not reflected in hash")
	}
}

func TestApplyErrors(t *testing.T) {
	w := pingPongWorld(t, false)
	if _, err := w.Apply(Step{Kind: StepDeliver, Proc: "nope"}); err == nil {
		t.Fatal("unknown proc accepted")
	}
	if _, err := w.Apply(Step{Kind: StepDeliver, Proc: "B", Pos: 0}); err == nil {
		t.Fatal("empty queue deliver accepted")
	}
	if _, err := w.Apply(Step{Kind: StepDrop, Proc: "B", Pos: 0}); err == nil {
		t.Fatal("empty queue drop accepted")
	}
	if _, err := w.Apply(Step{Kind: StepKind(200), Proc: "B"}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if err := w.Inject("nope", types.Message{Kind: types.MsgPowerOn}); err == nil {
		t.Fatal("inject to unknown proc accepted")
	}
}

// Property: Clone always produces a world with an identical hash, and
// applying the same step sequence to the original and a clone keeps
// them identical.
func TestQuickCloneEquivalence(t *testing.T) {
	f := func(choices []uint8) bool {
		w := pingPongWorldQ()
		env := []EnvEvent{
			{Proc: "A", Msg: types.Message{Kind: types.MsgUserDataOn}},
		}
		for _, choice := range choices {
			steps := w.Steps(env)
			if len(steps) == 0 {
				break
			}
			s := steps[int(choice)%len(steps)]
			c := w.Clone()
			if c.Hash() != w.Hash() {
				return false
			}
			if _, err := w.Apply(s); err != nil {
				return false
			}
			if _, err := c.Apply(s); err != nil {
				return false
			}
			if c.Hash() != w.Hash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pingPongWorldQ() *World {
	w, err := New(Config{
		Procs: []ProcConfig{
			{Name: "A", Spec: pingSpec("B")},
			{Name: "B", Spec: pongSpec(), Lossy: true},
		},
		Globals: map[string]int{"g.total": 0},
	})
	if err != nil {
		panic(err)
	}
	return w
}

func TestStepStrings(t *testing.T) {
	cases := []Step{
		{Kind: StepDeliver, Proc: "B", Msg: types.Message{Kind: types.MsgPowerOn}, Label: "recv"},
		{Kind: StepDrop, Proc: "B", Msg: types.Message{Kind: types.MsgPowerOn}},
		{Kind: StepDiscard, Proc: "B", Msg: types.Message{Kind: types.MsgPowerOn}},
		{Kind: StepEnv, Proc: "A", Msg: types.Message{Kind: types.MsgUserDataOn}, Label: "poke"},
	}
	for _, s := range cases {
		if s.String() == "" {
			t.Fatalf("empty String for %v", s.Kind)
		}
	}
	for _, k := range []StepKind{StepDeliver, StepDrop, StepDiscard, StepEnv, StepKind(99)} {
		if k.String() == "" {
			t.Fatal("empty StepKind string")
		}
	}
}
