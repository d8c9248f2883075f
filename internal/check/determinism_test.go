package check_test

// External test package: the determinism suite drives the checker
// through the standard scoped worlds of internal/core, which itself
// imports internal/check.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/model"
)

// violationKeys extracts the sorted (property, description) set of a
// result — the part of the violation list the determinism contract
// promises, independent of which counterexample path each engine
// happened to capture first.
func violationKeys(res *check.Result) []string {
	keys := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		keys[i] = v.Property + "\x00" + v.Desc
	}
	sort.Strings(keys)
	return keys
}

// TestParallelDeterminism asserts the engine's determinism contract on
// every standard world plus the 3-UE shared-core world: a sequential
// run and parallel runs with 1, 2 and 8 workers agree on the
// distinct-state count, the violation set and the per-process spec
// coverage; and on the search worlds the runs with 2 and 8 workers
// equal sequential BFS on everything that counts work — transitions,
// depth, truncation, message losses, the widest frontier layer and
// per-transition coverage counts, and on the visited-table stats that
// depend only on the state set (Live, Slots, Grows, Components). Two
// sequential DFS runs return equal visited-table stats.
func TestParallelDeterminism(t *testing.T) {
	worlds := core.StandardWorlds(false)
	worlds["multiue-shared3"] = core.MultiUEWorldShared(3, false)
	for _, name := range append(core.WorldNames(), "multiue-shared3") {
		s := worlds[name]
		t.Run(name, func(t *testing.T) {
			base, err := core.Screen(s, check.Options{})
			if err != nil {
				t.Fatalf("sequential screen: %v", err)
			}
			wantKeys := violationKeys(base.Result)
			wantCov := check.SpecCoverage(s.World, base.Result)
			again, err := core.Screen(s, check.Options{})
			if err != nil {
				t.Fatalf("second sequential screen: %v", err)
			}
			if !reflect.DeepEqual(again.Result.Visited, base.Result.Visited) {
				t.Errorf("visited stats differ between two sequential runs:\n%v\n%v", again.Result.Visited, base.Result.Visited)
			}

			var seq *check.Result
			if s.Options.Strategy != check.RandomWalk {
				opt := s.Options
				opt.Strategy, opt.Workers = check.BFS, 1
				r, err := core.Screen(s, opt)
				if err != nil {
					t.Fatalf("sequential BFS screen: %v", err)
				}
				seq = r.Result
			}

			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					opt := s.Options
					opt.Workers = workers
					r, err := core.Screen(s, opt)
					if err != nil {
						t.Fatalf("screen with %d workers: %v", workers, err)
					}
					if got := violationKeys(r.Result); !reflect.DeepEqual(got, wantKeys) {
						t.Errorf("violation set mismatch:\n got %q\nwant %q", got, wantKeys)
					}
					if r.Result.States != base.Result.States {
						t.Errorf("states = %d, want %d", r.Result.States, base.Result.States)
					}
					if got := check.SpecCoverage(s.World, r.Result); !reflect.DeepEqual(got, wantCov) {
						t.Errorf("spec coverage mismatch:\n got %+v\nwant %+v", got, wantCov)
					}
					if seq == nil || workers == 1 {
						return
					}
					got, want := *r.Result, *seq
					if got.Transitions != want.Transitions || got.MaxDepth != want.MaxDepth || got.Truncated != want.Truncated ||
						got.Misrouted != want.Misrouted || got.Dropped != want.Dropped || got.MaxFrontier != want.MaxFrontier {
						t.Errorf("transitions/depth/truncated/misrouted/dropped/frontier = %d/%d/%v/%d/%d/%d, sequential run has %d/%d/%v/%d/%d/%d",
							got.Transitions, got.MaxDepth, got.Truncated, got.Misrouted, got.Dropped, got.MaxFrontier,
							want.Transitions, want.MaxDepth, want.Truncated, want.Misrouted, want.Dropped, want.MaxFrontier)
					}
					if !reflect.DeepEqual(got.Covered, want.Covered) {
						t.Errorf("coverage counts differ from the sequential run:\n got %v\nwant %v", got.Covered, want.Covered)
					}
					if g, w := got.Visited, want.Visited; g == nil || w == nil ||
						g.Live != w.Live || g.Slots != w.Slots || g.Grows != w.Grows || g.Components != w.Components {
						t.Errorf("visited live/slots/grows/components differ from the sequential run:\n got %v\nwant %v", g, w)
					}
				})
			}
		})
	}
}

// TestSequentialBFSPins pins Strategy BFS: at one worker on the six
// finding worlds (the values the queue-based BFS engine reported before
// the layered engine replaced it, so the one-worker path is known to be
// that search and not merely self-consistent), on the 4-UE shared-core
// world under Symmetry and on NAS-timed S1 — the whole result, with
// every counterexample rendered by check.FormatCounterexample, notes
// included — and the 3-UE shared-core world at two workers, restricted
// to what kernel.go's determinism contract covers: the counts, the
// coverage, the violation set and each counterexample's length.
func TestSequentialBFSPins(t *testing.T) {
	type run struct {
		s   core.Scoped
		opt check.Options
	}
	bfs := func(s core.Scoped, sym bool, workers int) run {
		opt := s.Options
		opt.Strategy, opt.Symmetry, opt.Workers = check.BFS, sym, workers
		return run{s, opt}
	}
	runs := map[string]run{}
	for _, name := range []string{"s1", "s2", "s3", "s4cs", "s4ps", "s6"} {
		runs[name] = bfs(core.StandardWorlds(false)[name], false, 1)
	}
	runs["multiue-shared4-sym"] = bfs(core.MultiUEWorldShared(4, false), true, 1)
	timed, err := core.WithTiming(core.S1World(false), core.TimingNAS)
	if err != nil {
		t.Fatal(err)
	}
	runs["s1-timed-nas"] = bfs(timed, false, 1)
	runs["multiue-shared3-workers=2"] = bfs(core.MultiUEWorldShared(3, false), false, 2)

	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]resultPin{}
	for _, name := range names {
		r := runs[name]
		res, err := core.Screen(r.s, r.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.opt.Workers > 1 {
			p := pinOf(res.Result, nil)
			for _, v := range res.Result.Violations {
				p.PathLens = append(p.PathLens, len(v.Path))
			}
			got[name] = p
			continue
		}
		got[name] = pinOf(res.Result, counterexampleLines)
	}
	checkPins(t, "bfs.json", got)
}

// counterexampleLines renders a violation as check.FormatCounterexample
// does, one line per element: the header, each step and each of its
// notes.
func counterexampleLines(v check.Violation) []string {
	return strings.Split(strings.TrimSuffix(check.FormatCounterexample(v), "\n"), "\n")
}

// stepLines renders a violation as its property, its description and
// each step of its path.
func stepLines(v check.Violation) []string {
	path := []string{v.Property, v.Desc}
	for _, st := range v.Path {
		path = append(path, st.String())
	}
	return path
}

var updatePins = flag.Bool("update", false, "rewrite the engine pins under testdata/pins")

// resultPin is the part of a Result a pin file records: every count the
// determinism contract covers, the per-transition coverage, and the
// violations — in reported order, each rendered, where the order is
// pinned (Paths), as the sorted key set where it is not. PathLens, where
// set, is each counterexample's length in reported order.
type resultPin struct {
	States, Transitions, MaxDepth int
	Truncated                     bool
	Misrouted, Dropped            int
	Violations, FirstPath         int
	Covered                       map[string]int
	Keys                          []string   `json:",omitempty"`
	Paths                         [][]string `json:",omitempty"`
	PathLens                      []int      `json:",omitempty"`
}

// pinOf records r, rendering each violation with render in reported
// order, or — render nil — only the violation set.
func pinOf(r *check.Result, render func(check.Violation) []string) resultPin {
	p := resultPin{
		States: r.States, Transitions: r.Transitions, MaxDepth: r.MaxDepth, Truncated: r.Truncated,
		Misrouted: r.Misrouted, Dropped: r.Dropped, Violations: len(r.Violations), Covered: r.Covered,
	}
	if len(r.Violations) > 0 {
		p.FirstPath = len(r.Violations[0].Path)
	}
	if render == nil {
		p.Keys = violationKeys(r)
		return p
	}
	for _, v := range r.Violations {
		p.Paths = append(p.Paths, render(v))
	}
	return p
}

// checkPins compares got against testdata/pins/<file>, entry by entry
// (-update rewrites the file instead).
func checkPins(t *testing.T, file string, got map[string]resultPin) {
	t.Helper()
	path := filepath.Join("testdata", "pins", file)
	if *updatePins {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]resultPin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%s pins %d runs, test made %d", path, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s differs from the pin:\n got %+v\nwant %+v", path, name, g, w)
		}
	}
}

// TestSequentialDFSPins pins sequential DFS — counts, coverage and the
// first counterexample's length — to the values the engine reported
// before the drivers were put on one expansion kernel, on every
// standard search world, the 3-UE shared-core world plain and under
// Symmetry, and NAS-timed S1.
func TestSequentialDFSPins(t *testing.T) {
	type run struct {
		s   core.Scoped
		opt check.Options
	}
	runs := map[string]run{}
	for name, s := range core.StandardWorlds(false) {
		if s.Options.Strategy != check.RandomWalk {
			runs[name] = run{s, s.Options}
		}
	}
	shared3 := core.MultiUEWorldShared(3, false)
	runs["multiue-shared3"] = run{shared3, shared3.Options}
	sym := shared3.Options
	sym.Symmetry = true
	runs["multiue-shared3-sym"] = run{shared3, sym}
	timed, err := core.WithTiming(core.S1World(false), core.TimingNAS)
	if err != nil {
		t.Fatal(err)
	}
	runs["s1-timed-nas"] = run{timed, timed.Options}

	got := map[string]resultPin{}
	for name, r := range runs {
		if r.opt.Strategy != check.DFS || r.opt.Workers > 1 {
			t.Fatalf("%s: options %+v are not sequential DFS", name, r.opt)
		}
		res, err := core.Screen(r.s, r.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = pinOf(res.Result, nil)
	}
	checkPins(t, "dfs.json", got)
}

// TestWalkPins pins RandomWalk on the full world: at one worker the
// whole result, violations in discovery order with their paths; at four
// the counts, coverage and violation set (which worker's path survives
// the dedupe is outside the contract).
func TestWalkPins(t *testing.T) {
	s := core.StandardWorlds(false)["full"]
	got := map[string]resultPin{}
	for _, workers := range []int{1, 4} {
		opt := s.Options
		opt.Workers = workers
		res, err := core.Screen(s, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var render func(check.Violation) []string
		if workers == 1 {
			render = stepLines
		}
		p := pinOf(res.Result, render)
		if workers > 1 {
			p.FirstPath = 0
		}
		got[fmt.Sprintf("workers=%d", workers)] = p
	}
	checkPins(t, "walk.json", got)
}

// TestParallelStopAtFirstShortest: a layer is finished before the next
// starts, so whichever worker trips StopAtFirst does so in the first
// layer that holds a violation — the counterexample is as short as
// sequential BFS's.
func TestParallelStopAtFirstShortest(t *testing.T) {
	for _, s := range []core.Scoped{core.S6World(false), core.MultiUEWorldShared(3, false)} {
		opt := s.Options
		opt.StopAtFirst = true
		opt.Strategy = check.BFS
		bfs, err := core.Screen(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Strategy, opt.Workers = check.DFS, 4
		par, err := core.Screen(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(bfs.Result.Violations) == 0 || len(par.Result.Violations) == 0 {
			t.Fatalf("%s: StopAtFirst found %d violations sequentially, %d with 4 workers",
				s.Finding, len(bfs.Result.Violations), len(par.Result.Violations))
		}
		want := len(bfs.Result.Violations[0].Path)
		for _, v := range par.Result.Violations {
			if len(v.Path) > want {
				t.Errorf("%s: 4 workers stopped on a %d-step counterexample, BFS finds one of %d", s.Finding, len(v.Path), want)
			}
		}
	}
}

// cancelAfter is a monitor that never reports a violation and fires a
// Cancel on its at-th evaluation, i.e. from inside a worker, mid-layer.
type cancelAfter struct {
	calls  atomic.Int64
	at     int64
	cancel *check.Cancel
}

func (p *cancelAfter) Name() string { return "CancelAfter" }

func (p *cancelAfter) Check(*model.World, model.Step) string {
	if p.calls.Add(1) == p.at {
		p.cancel.Cancel()
	}
	return ""
}

// TestParallelCancelMidLayer cancels a 4-worker run from inside a wide
// layer: the run returns a truncated partial result, and returns only
// after every worker goroutine has.
func TestParallelCancelMidLayer(t *testing.T) {
	s := core.MultiUEWorldShared(3, false) // 201,144 transitions when run to the end
	cancel := &check.Cancel{}
	opt := s.Options
	opt.Workers = 4
	opt.Cancel = cancel
	props := append(append([]check.Property(nil), s.Props...), &cancelAfter{at: 50000, cancel: cancel})

	before := runtime.NumGoroutine()
	res, err := check.Run(s.World, props, s.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after it returned", before, after)
	}
	if !res.Truncated {
		t.Error("cancelled run not marked truncated")
	}
	// Each worker finishes at most the node it is on, a few dozen
	// transitions, before it sees the flag.
	if res.Transitions < 50000 || res.Transitions > 51000 {
		t.Errorf("cancelled at transition 50000, run applied %d", res.Transitions)
	}
}

// TestParallelRunsAgreeWithEachOther re-runs the widest world twice at
// the same worker count and asserts the violation lists are identical
// entry-for-entry (canonical order makes repeated parallel runs
// reproducible, not merely set-equal).
func TestParallelRunsAgreeWithEachOther(t *testing.T) {
	s := core.StandardWorlds(false)["s6"]
	opt := s.Options
	opt.Workers = 4

	a, err := core.Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(violationKeys(a.Result), violationKeys(b.Result)) {
		t.Errorf("two parallel runs disagree:\n a=%q\n b=%q",
			violationKeys(a.Result), violationKeys(b.Result))
	}
	for i := range a.Result.Violations {
		va, vb := a.Result.Violations[i], b.Result.Violations[i]
		if va.Property != vb.Property || va.Desc != vb.Desc {
			t.Errorf("violation %d ordering differs: (%s,%s) vs (%s,%s)",
				i, va.Property, va.Desc, vb.Property, vb.Desc)
		}
	}
}

// TestCampaignParallelMatchesSequential runs the whole phase-1 sweep
// sequentially and with campaign parallelism and compares per-world
// outcomes.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	seq, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{Parallel: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Finding != par[i].Finding {
			t.Fatalf("result %d order differs: %s vs %s", i, seq[i].Finding, par[i].Finding)
		}
		if got, want := violationKeys(par[i].Result), violationKeys(seq[i].Result); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: violation set mismatch:\n got %q\nwant %q", seq[i].Finding, got, want)
		}
		if par[i].Result.States != seq[i].Result.States {
			t.Errorf("%s: states = %d, want %d", seq[i].Finding, par[i].Result.States, seq[i].Result.States)
		}
	}
}

// TestCampaignBudgetTruncates shares a tiny state budget across the
// sweep and asserts the pool is exhausted and every world truncates
// rather than overshooting it.
func TestCampaignBudgetTruncates(t *testing.T) {
	results, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{StateBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range results {
		total += r.Result.States
	}
	if total > 50 {
		t.Errorf("campaign explored %d states, budget was 50", total)
	}
	truncated := 0
	for _, r := range results {
		if r.Result.Truncated {
			truncated++
		}
	}
	if truncated == 0 {
		t.Error("no world reported truncation under a 50-state budget")
	}
}

// TestCampaignCancelOnViolation asserts the first-violation switch
// stops the campaign early: at least one later world must be cut short
// (the scoped defective worlds all violate, so without cancellation
// every result would be complete).
func TestCampaignCancelOnViolation(t *testing.T) {
	results, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{CancelOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for _, r := range results {
		if r.Violated() {
			violated = true
		}
	}
	if !violated {
		t.Fatal("campaign found no violation at all")
	}
	// The first world already violates, so everything after it must
	// have been cancelled before completing its exploration.
	full, err := core.ScreenWorlds(core.ScopedModels(), nil, core.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for i := range results {
		if results[i].Result.States < full[i].Result.States {
			saved++
		}
	}
	if saved == 0 {
		t.Error("CancelOnViolation explored every world in full")
	}
}
