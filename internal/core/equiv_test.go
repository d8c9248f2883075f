package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cnetverifier/internal/check"
)

// The grid's axes. An engine is the world's own strategy (DFS, or
// RandomWalk on the walk world) or BFS, on some number of workers; more
// than one worker runs the layered engine (or splits the walks).
type (
	reduction struct{ por, sym bool }
	engine    struct {
		bfs     bool
		workers int
	}
)

var (
	plainOnly     = []reduction{{}}
	allReductions = []reduction{{}, {por: true}, {sym: true}, {por: true, sym: true}}
	registry      = engine{workers: 1}
	bfs1          = engine{bfs: true, workers: 1}
)

// oracleRow is one world of the grid and the reductions it is screened
// under; ues is a defective multi-UE world's UE count, and wide marks
// the defective rows, whose plain untimed cell also runs the layered
// engine at 2 and 4 workers and whose reference runs twice.
type oracleRow struct {
	name       string
	s          Scoped
	reductions []reduction
	ues        int
	wide       bool
}

// engines lists the engines of one (reduction, timing) cell of the row,
// its reference engine first.
func (row oracleRow) engines(red reduction, timed bool) []engine {
	var es []engine
	if row.s.Options.Strategy != check.BFS {
		es = append(es, registry)
	}
	if row.s.Options.Strategy != check.RandomWalk {
		es = append(es, bfs1)
	}
	if row.wide && red == (reduction{}) && !timed {
		es = append(es, engine{workers: 2}, engine{workers: 4})
	}
	return append(es, engine{workers: 8})
}

// gridRow returns the row of one of the standard worlds or of the 2-UE
// independent ("multiue2") or 3-UE shared-core ("multiue-shared3")
// world, screened under every reduction; the walk world under none, as
// TestPORRandomWalkIgnored and TestSymRandomWalkIgnored pin that the
// walk ignores both.
func gridRow(name string, fixed bool) oracleRow {
	worlds := StandardWorlds(fixed)
	worlds["multiue2"] = MultiUEWorld(2, fixed)
	worlds["multiue-shared3"] = MultiUEWorldShared(3, fixed)
	ues := map[string]int{"multiue": 3, "multiue2": 2, "multiue-shared": 2, "multiue-shared3": 3}
	row := oracleRow{name: name, s: worlds[name], reductions: allReductions, ues: ues[name], wide: !fixed}
	if fixed {
		row.name, row.ues = name+"-fixed", 0
	}
	if row.s.Options.Strategy == check.RandomWalk {
		row.reductions = plainOnly
	}
	return row
}

// oracleGrid returns the rows of every standard world and the 2-UE
// independent and 3-UE shared-core worlds, defective and fixed, and
// NAS-timed S1 and S6 screened breadth-first. Under the race detector,
// where a screen costs some 25 times as much, the 3-UE worlds are
// screened only defective and unreduced (their 2-UE twins carry the
// reductions), and the NAS-timed worlds not at all.
func oracleGrid(t *testing.T) []oracleRow {
	var rows []oracleRow
	for _, fixed := range []bool{false, true} {
		for _, name := range append(WorldNames(), "multiue2", "multiue-shared3") {
			row := gridRow(name, fixed)
			if raceEnabled && (name == "multiue" || name == "multiue-shared3") {
				if fixed {
					continue
				}
				row.reductions = plainOnly
			}
			rows = append(rows, row)
		}
	}
	if raceEnabled {
		return rows
	}
	for _, nas := range []oracleRow{
		{name: "s1-nas", s: S1World(false), reductions: plainOnly},
		{name: "s6-nas", s: S6World(false), reductions: []reduction{{}, {sym: true}}},
	} {
		var err error
		if nas.s, err = WithTiming(nas.s, TimingNAS); err != nil {
			t.Fatal(err)
		}
		nas.s.Options.Strategy = check.BFS
		rows = append(rows, nas)
	}
	return rows
}

// cellKey names one screen: a grid row, whether its world is the
// degenerate-timed copy, the reduction and the engine.
type cellKey struct {
	row   string
	timed bool
	red   reduction
	e     engine
}

// store holds the cells screened so far in this pass over the package's
// tests, so that each is screened once: the tests below the oracle,
// named after the matrices it grew out of, read its results and screen
// only the cells it lacks. A pass ends when a test that reads the store
// starts for the second time — go test -count=N runs every test N times
// over — so each repetition screens afresh.
var store struct {
	sync.Mutex
	cells   map[cellKey]*check.Result
	started map[string]bool
}

// startPass registers the top-level test t as a reader of the store,
// starting a new pass if t has run before. Every test that calls cell
// calls it first.
func startPass(t *testing.T) {
	store.Lock()
	defer store.Unlock()
	if store.started == nil || store.started[t.Name()] {
		store.cells, store.started = map[cellKey]*check.Result{}, map[string]bool{}
	}
	store.started[t.Name()] = true
}

// cell returns the result of screening the row's world (its
// degenerate-timed copy if timed) under one reduction and engine,
// screening it on its first use in this pass.
func cell(t *testing.T, row oracleRow, timed bool, red reduction, e engine) *check.Result {
	t.Helper()
	k := cellKey{row.name, timed, red, e}
	top, _, _ := strings.Cut(t.Name(), "/")
	store.Lock()
	r, ok := store.cells[k]
	started := store.started[top]
	store.Unlock()
	if !started {
		t.Fatalf("%s reads the cell store without calling startPass", top)
	}
	if ok {
		return r
	}
	s := row.s
	if timed {
		var err error
		if s, err = WithTiming(s, TimingDegenerate); err != nil {
			t.Fatal(err)
		}
	}
	r = screenCell(t, s, red, e)
	store.Lock()
	store.cells[k] = r
	store.Unlock()
	return r
}

// work is what a layered run must repeat of sequential BFS: the counts
// of work done, per-transition coverage and the visited-table stats
// that depend only on the state set.
type work struct {
	Transitions, MaxDepth, Misrouted, Dropped, MaxFrontier int
	Truncated                                              bool
	Covered                                                map[string]int
	Live, Slots, Grows, Components                         int
}

func workOf(r *check.Result) work {
	v := r.Visited
	return work{r.Transitions, r.MaxDepth, r.Misrouted, r.Dropped, r.MaxFrontier, r.Truncated, r.Covered,
		v.Live, v.Slots, v.Grows, v.Components}
}

// TestEngineEquivalence is the engine-equivalence oracle. It screens
// each world of oracleGrid once per (timing, reduction, engine) cell —
// timing degenerate only where WithTiming changes the world — and
// asserts:
//
//	(a) every cell reports the violation set of the world's plain
//	    sequential reference, and a defective multi-UE world one
//	    violation per UE;
//	(b) within one reduction, every engine and timing visits the same
//	    number of states, POR no more than the same run without it;
//	(c) within one (reduction, timing), every layered cell of a search
//	    world does sequential BFS's work, and degenerate-timed BFS
//	    its untimed twin's;
//	(d) within one (reduction, timing), every engine covers the same
//	    spec transitions;
//	(e) on the defective worlds, two runs of the reference report equal
//	    visited-table stats.
func TestEngineEquivalence(t *testing.T) {
	startPass(t)
	for _, row := range oracleGrid(t) {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			checkRow(t, row)
		})
	}
}

// screenCell screens s under one reduction and engine.
func screenCell(t *testing.T, s Scoped, red reduction, e engine) *check.Result {
	t.Helper()
	opt := s.Options
	opt.POR, opt.Symmetry, opt.Workers = red.por, red.sym, e.workers
	if e.bfs {
		opt.Strategy = check.BFS
	}
	r, err := check.Run(s.World, s.Props, s.Scenario, opt)
	if err != nil {
		t.Fatalf("%s/%+v/%+v: %v", s.Finding, red, e, err)
	}
	return r
}

func checkRow(t *testing.T, row oracleRow) {
	refEngine := row.engines(reduction{}, false)[0]
	ref := cell(t, row, false, reduction{}, refEngine)
	if row.wide && refEngine == registry {
		if again := screenCell(t, row.s, reduction{}, registry); !reflect.DeepEqual(again.Visited, ref.Visited) {
			t.Errorf("%s: visited stats differ between two sequential runs:\n%v\n%v", row.name, again.Visited, ref.Visited)
		}
	}
	want := violationSet(ref)
	if row.ues > 0 && len(want) != row.ues {
		t.Errorf("%s: defective %d-UE world reports %d violations, want one per UE", row.name, row.ues, len(want))
	}
	timings := []Scoped{row.s}
	if timed, err := WithTiming(row.s, TimingDegenerate); err != nil {
		t.Fatal(err)
	} else if timed.World != row.s.World {
		timings = append(timings, timed)
	}

	states := map[reduction]int{}
	untimedBFS := map[reduction]work{}
	for ti, s := range timings {
		for _, red := range row.reductions {
			var bfs work
			var cov map[string]check.CoverageReport
			for _, e := range row.engines(red, ti > 0) {
				name := fmt.Sprintf("%s/%s/%+v/%+v", row.name, [...]string{"untimed", "degenerate"}[ti], red, e)
				r := cell(t, row, ti > 0, red, e)
				if got := violationSet(r); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: violation set differs from the plain sequential run:\n got %q\nwant %q", name, got, want)
				}
				if n, ok := states[red]; !ok {
					states[red] = r.States
				} else if r.States != n {
					t.Errorf("%s: states = %d, the reduction's first cell has %d", name, r.States, n)
				}
				if c := check.SpecCoverage(s.World, r); cov == nil {
					cov = c
				} else if !reflect.DeepEqual(c, cov) {
					t.Errorf("%s: spec coverage differs from the first engine's:\n got %+v\nwant %+v", name, c, cov)
				}
				if e == registry || row.s.Options.Strategy == check.RandomWalk {
					continue
				}
				w, base := workOf(r), bfs
				switch {
				case e == bfs1 && ti == 0:
					bfs, untimedBFS[red] = w, w
					continue
				case e == bfs1:
					// The key carries the timer section, so the table's
					// shape and interned components differ; the work
					// does not.
					bfs, base = w, untimedBFS[red]
					w.Slots, w.Grows, w.Components = base.Slots, base.Grows, base.Components
				case red.sym:
					// A layered worker expands whichever member of an orbit
					// it claims first: which replica's labels count a
					// transition, and which components get interned,
					// follow claim order.
					w.Covered, w.Components = base.Covered, base.Components
				}
				if !reflect.DeepEqual(w, base) {
					t.Errorf("%s: work differs from sequential BFS's:\n got %+v\nwant %+v", name, w, base)
				}
			}
		}
	}
	for _, red := range row.reductions {
		if unreduced := (reduction{sym: red.sym}); red.por && states[red] > states[unreduced] {
			t.Errorf("%s: %+v visits %d states, more than %+v's %d", row.name, red, states[red], unreduced, states[unreduced])
		}
	}
}

// The tests below are the matrices the oracle grew out of, kept under
// their names; they read the oracle's cells.

// multiUE names the rows of the 3-UE independent and shared-core worlds,
// or under the race detector, where the grid screens those only
// defective and unreduced, of their 2-UE twins, which drive the same
// code paths (multi-replica canonicalization, closure, parallel engine)
// over a 34² product.
var multiUE = map[bool][2]string{false: {"multiue", "multiue-shared3"}, true: {"multiue2", "multiue-shared"}}[raceEnabled]

// sameSet reports a difference between the violation sets of two cells.
func sameSet(t *testing.T, what string, got, want *check.Result) {
	t.Helper()
	if g, w := violationSet(got), violationSet(want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s changes the violation set:\n got %q\nwant %q", what, g, w)
	}
}

// TestDegenerateTimingMatchesUntimed: a degenerate timing profile
// (zero-width periodic windows standing in for the scenario's periodic
// env events) must reproduce the untimed violation set on every
// standard world. The timed state graph is isomorphic to the untimed
// one — see TimingDegenerate — so any drift here is an engine bug, not
// a model difference. WithTiming returns a world without periodic env
// events (all but s2 and full) as it is, untimed; on s2 and full the
// timed run agrees with the untimed one under every reduction at 1 and
// 8 workers.
func TestDegenerateTimingMatchesUntimed(t *testing.T) {
	startPass(t)
	for _, name := range WorldNames() {
		t.Run(name, func(t *testing.T) {
			row := gridRow(name, false)
			ts, err := WithTiming(row.s, TimingDegenerate)
			if err != nil {
				t.Fatalf("WithTiming: %v", err)
			}
			if ts.World == row.s.World {
				if ts.World.TimingEnabled() {
					t.Error("WithTiming returned the world as it is, timed")
				}
				return
			}
			for _, red := range row.reductions {
				for _, e := range []engine{registry, {workers: 8}} {
					sameSet(t, fmt.Sprintf("degenerate timing at %+v/%+v", red, e), cell(t, row, true, red, e), cell(t, row, false, red, e))
				}
			}
		})
	}
}

// TestPORViolationSetsMatchStandardWorlds is the S1–S6 golden gate of
// the POR acceptance criteria: over every standard world (defective
// and fixed variants), the violation set with POR enabled is identical
// to the violation set with POR disabled.
func TestPORViolationSetsMatchStandardWorlds(t *testing.T) {
	startPass(t)
	for _, fixed := range []bool{false, true} {
		for _, name := range WorldNames() {
			t.Run(fmt.Sprintf("%s/fixed=%v", name, fixed), func(t *testing.T) {
				row := gridRow(name, fixed)
				plain, por := cell(t, row, false, reduction{}, registry), cell(t, row, false, reduction{por: true}, registry)
				sameSet(t, "POR", por, plain)
				if por.States > plain.States {
					t.Errorf("POR visited more states than the plain run: %d > %d", por.States, plain.States)
				}
			})
		}
	}
}

// TestSymViolationSetsMatchMultiUE is the exactness gate of the
// symmetry acceptance criteria: over the full engine matrix — POR
// on/off × Symmetry on/off × workers 1/8 — both multi-UE worlds
// (independent and shared-core, defective and fixed) report the one
// canonical violation set of the plain sequential run.
func TestSymViolationSetsMatchMultiUE(t *testing.T) {
	startPass(t)
	for _, fixed := range []bool{false, true} {
		for i, name := range []string{"multiue", "multiue-shared"} {
			t.Run(fmt.Sprintf("%s/fixed=%v", name, fixed), func(t *testing.T) {
				row := gridRow(multiUE[i], fixed)
				plain := cell(t, row, false, reduction{}, registry)
				if n := len(plain.Violations); row.ues > 0 && n != row.ues {
					t.Errorf("defective %d-UE world: plain run found %d violations, want one per UE", row.ues, n)
				}
				for _, red := range allReductions {
					for _, e := range []engine{registry, {workers: 8}} {
						sameSet(t, fmt.Sprintf("%+v/%+v", red, e), cell(t, row, false, red, e), plain)
					}
				}
			})
		}
	}
}

// TestSymParallelDeterminism pins the worker-count independence of the
// quotient search: with Symmetry on, workers=1 and workers=8 agree on
// the exact state count, not just the violation set (min-depth visited
// fixpoint over canonical hashes).
func TestSymParallelDeterminism(t *testing.T) {
	startPass(t)
	for _, world := range multiUE {
		parallelAgrees(t, gridRow(world, false), reduction{sym: true}, reduction{por: true, sym: true})
	}
}

// TestPORParallelDeterminism extends the parallel determinism contract
// to POR runs: workers=1 and workers=8 report the same states count
// and violation set on the decomposed world.
func TestPORParallelDeterminism(t *testing.T) {
	startPass(t)
	parallelAgrees(t, gridRow("multiue2", false), reduction{por: true})
}

// parallelAgrees asserts that the row reports the same states count and
// violation set at 1 and 8 workers under each reduction.
func parallelAgrees(t *testing.T, row oracleRow, reds ...reduction) {
	t.Helper()
	for _, red := range reds {
		seq, par := cell(t, row, false, red, registry), cell(t, row, false, red, engine{workers: 8})
		if seq.States != par.States {
			t.Errorf("%s %+v: states differ across workers: seq=%d par=%d", row.name, red, seq.States, par.States)
		}
		sameSet(t, fmt.Sprintf("%s %+v at 8 workers", row.name, red), par, seq)
	}
}
