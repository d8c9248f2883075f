package check

import (
	"strings"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// counterSpec counts MsgUserMove events; reaching limit is "bad".
func counterSpec() *fsm.Spec {
	return &fsm.Spec{
		Name: "counter",
		Init: "RUN",
		Vars: map[string]int{"n": 0},
		Transitions: []fsm.Transition{
			{Name: "inc", From: "RUN", On: types.MsgUserMove, To: fsm.Same,
				Action: func(c fsm.Ctx, e fsm.Event) { c.Set("n", c.Get("n")+1) }},
			{Name: "reset", From: "RUN", On: types.MsgPowerOff, To: fsm.Same,
				Action: func(c fsm.Ctx, e fsm.Event) { c.Set("n", 0) }},
		},
	}
}

type limitProp struct{ limit int }

func (p limitProp) Name() string { return "CounterBelowLimit" }
func (p limitProp) Check(w *model.World, last model.Step) string {
	if w.Proc("C").M.Var("n") >= p.limit {
		return "counter reached limit"
	}
	return ""
}

func counterWorld(t *testing.T) *model.World {
	t.Helper()
	w, err := model.New(model.Config{Procs: []model.ProcConfig{
		{Name: "C", Spec: counterSpec()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func moveScenario() Scenario {
	return ScenarioFunc(func(w *model.World) []model.EnvEvent {
		return []model.EnvEvent{
			{Proc: "C", Msg: types.Message{Kind: types.MsgUserMove}},
			{Proc: "C", Msg: types.Message{Kind: types.MsgPowerOff}},
		}
	})
}

func TestDFSFindsViolation(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(), Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated("CounterBelowLimit") {
		t.Fatal("DFS missed reachable violation")
	}
	v := res.ViolationsOf("CounterBelowLimit")[0]
	if len(v.Path) < 3 {
		t.Fatalf("counterexample too short: %d steps", len(v.Path))
	}
	// Replay the counterexample and confirm it reproduces the state.
	end, err := Replay(w, v.Path)
	if err != nil {
		t.Fatal(err)
	}
	if end.Proc("C").M.Var("n") < 3 {
		t.Fatalf("replay ended with n=%d, want >=3", end.Proc("C").M.Var("n"))
	}
	// The input world must not be mutated by Run or Replay.
	if w.Proc("C").M.Var("n") != 0 {
		t.Fatal("Run/Replay mutated the input world")
	}
}

func TestBFSShortestCounterexample(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(),
		Options{Strategy: BFS, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated("CounterBelowLimit") {
		t.Fatal("BFS missed reachable violation")
	}
	v := res.ViolationsOf("CounterBelowLimit")[0]
	if len(v.Path) != 3 {
		t.Fatalf("BFS counterexample = %d steps, want exactly 3", len(v.Path))
	}
}

func TestRandomWalkFindsViolation(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(),
		Options{Strategy: RandomWalk, MaxDepth: 12, Walks: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated("CounterBelowLimit") {
		t.Fatal("random walk missed easily reachable violation")
	}
}

func TestRandomWalkDeterministicSeed(t *testing.T) {
	w := counterWorld(t)
	opts := Options{Strategy: RandomWalk, MaxDepth: 8, Walks: 50, Seed: 7}
	a, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Transitions != b.Transitions || a.States != b.States || len(a.Violations) != len(b.Violations) {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestUnreachableViolation(t *testing.T) {
	w := counterWorld(t)
	// With depth 2 the counter can reach at most 2 < 3.
	res, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(), Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated("CounterBelowLimit") {
		t.Fatal("violation found below reachability depth")
	}
	if !res.Truncated {
		t.Fatal("depth-bounded run should report truncation")
	}
}

func TestStopAtFirst(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 1}}, moveScenario(),
		Options{MaxDepth: 10, StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(res.Violations))
	}
}

func TestStateDeduplication(t *testing.T) {
	// inc/reset generates cycles; dedup must keep the state count at
	// the number of distinct counter values (bounded by depth), not the
	// number of paths (exponential).
	w := counterWorld(t)
	res, err := Run(w, nil, moveScenario(), Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct states: n = 0..8 → 9 states.
	if res.States > 16 {
		t.Fatalf("states = %d; deduplication not effective", res.States)
	}
	if res.Transitions < res.States {
		t.Fatalf("transitions (%d) < states (%d)?", res.Transitions, res.States)
	}
	if res.Visited == nil || res.Visited.ArenaBytes == 0 {
		t.Fatal("run carries no visited-table arena stats")
	}
}

func TestParanoidMode(t *testing.T) {
	w := counterWorld(t)
	if _, err := Run(w, nil, moveScenario(), Options{MaxDepth: 8, Paranoid: true}); err != nil {
		t.Fatalf("paranoid run failed: %v", err)
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, nil, moveScenario(), Options{MaxDepth: 50, MaxStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("state cap should truncate")
	}
	if res.States > 5 {
		t.Fatalf("states = %d, cap was 5", res.States)
	}
}

// TestMaxDepthLimit: the visited table keeps a state's minimal depth in
// 16 bits, so the deepest bound it can honour exactly is accepted and
// one past it is refused before any search starts.
func TestMaxDepthLimit(t *testing.T) {
	w := counterWorld(t)
	if _, err := Run(w, nil, moveScenario(), Options{MaxDepth: 65535, MaxStates: 100}); err != nil {
		t.Fatalf("MaxDepth 65535 refused: %v", err)
	}
	for _, s := range []Strategy{DFS, BFS, RandomWalk} {
		res, err := Run(w, nil, moveScenario(), Options{Strategy: s, MaxDepth: 65536})
		if err == nil || !strings.Contains(err.Error(), "MaxDepth 65536") {
			t.Errorf("%v: MaxDepth 65536 gave %v, %v; want an error naming it", s, res, err)
		}
	}
}

func TestNilScenario(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 1}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No env events and no queued messages: nothing to explore.
	if res.Transitions != 0 || len(res.Violations) != 0 {
		t.Fatalf("expected empty exploration, got %+v", res)
	}
}

func TestBadStrategy(t *testing.T) {
	w := counterWorld(t)
	if _, err := Run(w, nil, nil, Options{Strategy: Strategy(99)}); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

func TestFormatCounterexample(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 2}}, moveScenario(), Options{Strategy: BFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation")
	}
	out := FormatCounterexample(res.Violations[0])
	if !strings.Contains(out, "CounterBelowLimit") || !strings.Contains(out, "1.") {
		t.Fatalf("unexpected format:\n%s", out)
	}
}

func TestViolationDeduplication(t *testing.T) {
	// The same (property, desc) violation reachable via many paths must
	// be reported once.
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 2}}, moveScenario(), Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.ViolationsOf("CounterBelowLimit")); got != 1 {
		t.Fatalf("violations = %d, want 1 (deduplicated)", got)
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{DFS, BFS, RandomWalk, Strategy(42)} {
		if s.String() == "" {
			t.Fatal("empty strategy string")
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Property: "P", Desc: "bad", Path: make([]model.Step, 2)}
	if !strings.Contains(v.String(), "P") || !strings.Contains(v.String(), "2") {
		t.Fatalf("bad violation string: %s", v.String())
	}
}

func TestReplayError(t *testing.T) {
	w := counterWorld(t)
	bad := []model.Step{{Kind: model.StepDeliver, Proc: "nope"}}
	if _, err := Replay(w, bad); err == nil {
		t.Fatal("replay of invalid path accepted")
	}
}

// Lossy-channel exploration: with a lossy inbox the checker must
// explore both delivery and drop, and a property seeing the drop
// branch must fire.
func TestLossyBranching(t *testing.T) {
	recvSpec := &fsm.Spec{
		Name: "recv",
		Init: "WAIT",
		Transitions: []fsm.Transition{
			{Name: "got", From: "WAIT", On: types.MsgAttachComplete, To: "DONE"},
		},
	}
	w, err := model.New(model.Config{Procs: []model.ProcConfig{
		{Name: "R", Spec: recvSpec, Lossy: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.Inject("R", types.Message{Kind: types.MsgAttachComplete})

	// Property: after the queue drains, R must be DONE. Violated on the
	// drop branch.
	prop := propFunc{
		name: "DeliveryHappened",
		f: func(w *model.World, last model.Step) string {
			if w.Quiescent() && w.Proc("R").M.State() != "DONE" {
				return "message lost, receiver stuck in WAIT"
			}
			return ""
		},
	}
	res, err := Run(w, []Property{prop}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated("DeliveryHappened") {
		t.Fatal("checker did not explore the drop branch")
	}
	v := res.ViolationsOf("DeliveryHappened")[0]
	if v.Path[len(v.Path)-1].Kind != model.StepDrop {
		t.Fatalf("counterexample should end in a drop: %v", v.Path)
	}
}

type propFunc struct {
	name string
	f    func(w *model.World, last model.Step) string
}

func (p propFunc) Name() string                                 { return p.name }
func (p propFunc) Check(w *model.World, last model.Step) string { return p.f(w, last) }

// Transition coverage: the counter world's inc and reset transitions
// are both exercised and reported.
func TestTransitionCoverage(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, nil, moveScenario(), Options{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered["C/inc"] == 0 || res.Covered["C/reset"] == 0 {
		t.Fatalf("coverage = %v", res.Covered)
	}
	rep := SpecCoverage(w, res)["C"]
	if rep.Fired != 2 || rep.Total != 2 || len(rep.Missed) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Fraction() != 1 {
		t.Fatalf("fraction = %v", rep.Fraction())
	}
	// A world that never fires anything reports zero coverage.
	empty, err := Run(w, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repEmpty := SpecCoverage(w, empty)["C"]
	if repEmpty.Fired != 0 || len(repEmpty.Missed) != 2 {
		t.Fatalf("empty report = %+v", repEmpty)
	}
}

// EssentialEvents strips non-essential environment events: in a world
// where only UserMove advances the counter, PowerOff resets are
// dropped from the trigger set.
func TestEssentialEvents(t *testing.T) {
	w := counterWorld(t)
	opt := Options{MaxDepth: 10}
	res, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a violation whose path includes a reset (non-essential).
	var chosen *Violation
	for i, v := range res.Violations {
		for _, s := range v.Path {
			if s.Msg.Kind == types.MsgPowerOff {
				chosen = &res.Violations[i]
			}
		}
	}
	if chosen == nil {
		chosen = &res.Violations[0]
	}
	essential, err := EssentialEvents(w, []Property{limitProp{limit: 3}}, moveScenario(), opt, *chosen)
	if err != nil {
		t.Fatal(err)
	}
	if len(essential) != 1 || essential[0].Msg.Kind != types.MsgUserMove {
		t.Fatalf("essential = %v, want only UserMove", essential)
	}
}
