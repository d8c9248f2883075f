package check

import (
	"reflect"
	"runtime"
	"testing"

	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// incScenario drives the counter world with a single event, so the root
// enables exactly one step and every layer of the search is one node
// wide.
func incScenario() Scenario {
	return ScenarioFunc(func(w *model.World) []model.EnvEvent {
		return []model.EnvEvent{
			{Proc: "C", Msg: types.Message{Kind: types.MsgUserMove}},
		}
	})
}

// TestDegradeParallel pins what a request for workers costs a world too
// narrow to use them: Workers > 1 always means the layered search, and
// a layer of at most one chunk runs on the caller — no goroutine is
// started, however many workers were asked for.
func TestDegradeParallel(t *testing.T) {
	for _, strategy := range []Strategy{DFS, BFS} {
		before := runtime.NumGoroutine()
		probe := &goroutineProbe{}
		_, err := Run(counterWorld(t), []Property{probe}, incScenario(), Options{Strategy: strategy, MaxDepth: 8, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if probe.calls == 0 {
			t.Fatalf("%v: monitor never ran", strategy)
		}
		if probe.max > before {
			t.Errorf("%v: %d goroutines before the run, %d during it", strategy, before, probe.max)
		}
	}
}

// goroutineProbe is a monitor that never fires and records the largest
// goroutine count it saw while the search ran.
type goroutineProbe struct{ calls, max int }

func (p *goroutineProbe) Name() string { return "GoroutineProbe" }

func (p *goroutineProbe) Check(*model.World, model.Step) string {
	p.calls++
	p.max = max(p.max, runtime.NumGoroutine())
	return ""
}

// TestDegradeParallelEquivalence runs a width-1 world with Workers=8:
// the run must equal sequential BFS field for field — not merely the
// same violation set, the same Result (the inline layered search is the
// very same code path) — and differ from sequential DFS only where the
// search order shows.
func TestDegradeParallelEquivalence(t *testing.T) {
	props := []Property{limitProp{limit: 3}}
	bfs, err := Run(counterWorld(t), props, incScenario(), Options{Strategy: BFS, MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []Strategy{DFS, BFS} {
		par, err := Run(counterWorld(t), props, incScenario(), Options{Strategy: strategy, MaxDepth: 8, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bfs, par) {
			t.Fatalf("%v with 8 workers differs from sequential BFS:\nbfs: %+v\npar: %+v", strategy, bfs, par)
		}
	}
	if bfs.States == 0 || len(bfs.Violations) == 0 {
		t.Fatalf("degenerate fixture: %d states, %d violations", bfs.States, len(bfs.Violations))
	}
}
