package check

import (
	"errors"
	"math"
	"strings"
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
	if violated, err := e.checkProps(w, last, &dfsFrame{at: &nodes[0]}); err != nil || !violated {
		t.Fatalf("property did not trigger (err %v)", err)
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

// TestTrailSiblingsIndependent asserts two siblings discovered from one
// state are independent trails: each replays its own path, both share
// the parent's prefix, and mutating one replayed path never shows
// through the other.
func TestTrailSiblingsIndependent(t *testing.T) {
	w0 := counterWorld(t)
	var a trailArena
	a.append(trail{})                             // 0: the start state
	parent, _ := a.append(trail{prev: 0, idx: 0}) // inc: n=1
	left, _ := a.append(trail{prev: parent, idx: 0})
	right, _ := a.append(trail{prev: parent, idx: 1})
	var scratch model.World
	pl, steps, err := replayTrail(&a, left, w0, &scratch, moveScenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := scratch.Proc("C").M.Var("n"); n != 2 {
		t.Fatalf("left trail reaches n=%d, want 2", n)
	}
	pr, _, err := replayTrail(&a, right, w0, &scratch, moveScenario(), steps)
	if err != nil {
		t.Fatal(err)
	}
	if n := scratch.Proc("C").M.Var("n"); n != 0 {
		t.Fatalf("right trail reaches n=%d, want 0", n)
	}
	if len(pl) != 2 || len(pr) != 2 || pl[0].Label != "inc" || pr[0].Label != "inc" ||
		pl[1].Label != "inc" || pr[1].Label != "reset" {
		t.Fatalf("sibling paths: left %v, right %v", pl, pr)
	}
	pl[0].Label = "rewritten"
	if pr[0].Label != "inc" {
		t.Error("replayed siblings share steps")
	}
	if w0.Proc("C").M.Var("n") != 0 {
		t.Error("replay mutated the start world")
	}
}

// TestTrailArenaChunking asserts trails longer than one arena chunk
// stay intact: entries allocated across chunk boundaries keep valid
// prev links, and the indices come back in path order. A full arena
// refuses an entry rather than wrap its index.
func TestTrailArenaChunking(t *testing.T) {
	var a trailArena
	tail, _ := a.append(trail{})
	const n = trailChunk*2 + 7
	for i := 0; i < n; i++ {
		tail, _ = a.append(trail{prev: tail, idx: uint32(i)})
	}
	idxs := a.indices(tail)
	if len(idxs) != n {
		t.Fatalf("trail has %d steps, want %d", len(idxs), n)
	}
	for i, idx := range idxs {
		if idx != uint32(i) {
			t.Fatalf("step %d has index %d", i, idx)
		}
	}
	full := trailArena{n: math.MaxUint32}
	if _, ok := full.append(trail{}); ok {
		t.Fatal("an arena holding MaxUint32 entries took another: its index would wrap")
	}
}

// TestTrailReplayRejectsABadIndex asserts a trail choosing a step the
// state does not offer fails the replay instead of yielding a path.
func TestTrailReplayRejectsABadIndex(t *testing.T) {
	var a trailArena
	a.append(trail{})
	bad, _ := a.append(trail{prev: 0, idx: 2}) // moveScenario offers two steps
	var scratch model.World
	if _, _, err := replayTrail(&a, bad, counterWorld(t), &scratch, moveScenario(), nil); err == nil {
		t.Fatal("replay of an out-of-range step index succeeded")
	}
}

// stochasticScenario declares itself stochastic, as scenario.Sampler
// does.
type stochasticScenario struct{ Scenario }

func (stochasticScenario) Stochastic() bool { return true }

// TestLayeredRefusesStochasticScenario asserts the layered search — BFS
// at one worker, either strategy at two — refuses a scenario that
// declares itself stochastic with ErrStochasticScenario, also through
// EssentialEvents' filtering wrapper, while sequential DFS and random
// walks still run it.
func TestLayeredRefusesStochasticScenario(t *testing.T) {
	w := counterWorld(t)
	sc := stochasticScenario{moveScenario()}
	props := []Property{limitProp{limit: 3}}
	for _, opt := range []Options{{Strategy: BFS}, {Strategy: DFS, Workers: 2}, {Strategy: BFS, Workers: 2, POR: true}} {
		opt.MaxDepth = 10
		if _, err := Run(w, props, sc, opt); !errors.Is(err, ErrStochasticScenario) {
			t.Errorf("%v at %d workers: err = %v, want ErrStochasticScenario", opt.Strategy, opt.Workers, err)
		}
	}
	if _, err := Run(w, props, filteredScenario{base: sc}, Options{Strategy: BFS}); !errors.Is(err, ErrStochasticScenario) {
		t.Errorf("filtered stochastic scenario: err = %v, want ErrStochasticScenario", err)
	}
	for _, opt := range []Options{{Strategy: DFS}, {Strategy: RandomWalk, Walks: 20}, {Strategy: RandomWalk, Walks: 20, Workers: 2}} {
		opt.MaxDepth = 10
		res, err := Run(w, props, sc, opt)
		if err != nil {
			t.Errorf("%v at %d workers: %v", opt.Strategy, opt.Workers, err)
		} else if opt.Strategy == DFS && !res.Violated("CounterBelowLimit") {
			t.Errorf("DFS missed the violation")
		}
	}
}

// TestLayeredReplayDetectsImpureScenario asserts a scenario that is not
// a function of the world, without declaring itself stochastic, fails
// the layered run when a counterexample is replayed, instead of
// yielding a path that does not reach the violation: the scenario
// swaps its event order after the first three expansions, so the
// replayed indices choose other steps.
func TestLayeredReplayDetectsImpureScenario(t *testing.T) {
	calls := 0
	sc := ScenarioFunc(func(*model.World) []model.EnvEvent {
		calls++
		move := model.EnvEvent{Proc: "C", Msg: types.Message{Kind: types.MsgUserMove}}
		off := model.EnvEvent{Proc: "C", Msg: types.Message{Kind: types.MsgPowerOff}}
		if calls <= 3 {
			return []model.EnvEvent{move, off}
		}
		return []model.EnvEvent{off, move}
	})
	_, err := Run(counterWorld(t), []Property{limitProp{limit: 3}}, sc, Options{Strategy: BFS, MaxDepth: 10, SkipLint: true})
	if err == nil || !strings.Contains(err.Error(), "not a pure function of the world") {
		t.Fatalf("err = %v, want a replay divergence", err)
	}
}
