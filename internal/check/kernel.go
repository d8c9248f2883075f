package check

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/model"
)

// This file is the exploration kernel: the one place the checker
// enumerates steps, applies them, counts them, runs the monitors and
// marks the visited table. The three strategies are frontier drivers
// over it, and differ in nothing else:
//
//   - runDFS (dfs.go) keeps a stack of per-depth frames over one world
//     explored in place;
//   - runLayered (parallel.go) keeps a slice of states per depth, each
//     held as its collapsed key, which a worker rebuilds into its own
//     world to expand;
//   - runWalks (walk.go) keeps no frontier at all.
//
// Whatever the driver, expand works on a world it may mutate: it
// applies each step in place, hands a successor to the driver (push)
// while the world is in it, with the key the visited table was just
// asked about, and rolls the step back.
//
// A run is one engine (what its workers share) and Options.Workers
// workers (what each goroutine owns). Sequential DFS, and every driver
// at one worker, runs on the caller's goroutine.
//
// Determinism contract (asserted by core's TestEngineEquivalence). The
// layered search finishes a layer before the next one starts, so every
// state is claimed in the visited table at its minimal depth and
// expanded exactly once, whichever worker gets there first. For the
// same world and options these are therefore the same numbers at every
// worker count:
//
//   - States, Transitions, MaxDepth, MaxFrontier, Truncated, Misrouted,
//     Dropped and the Covered counts — under Symmetry only their total:
//     a worker expands whichever member of an orbit it claims first, so
//     which replica's labels count a transition follows claim order;
//   - the violation set (property, description pairs) and the length
//     of each counterexample — a violation is captured in the first
//     layer that shows it.
//
// What is not: which of several equally short paths a racing worker
// captures for a violation (one worker always captures BFS's); the
// state set, and with it everything above, once MaxStates or a shared
// Budget refuses states — which ones are refused depends on claim
// order; and the tallies of a run cut short by StopAtFirst or Cancel.
// Random walks derive their RNG stream from (Seed, walk index), so the
// sampled schedules, and every count above, are the same however walks
// land on workers.
//
// One rule decides how violations are reported (finish): a run with
// one worker lists them in discovery order; a run with more sorts them
// canonically and re-verifies every counterexample with Replay, since
// the paths crossed goroutines.

// engine is the state of one run that its workers share.
type engine struct {
	opt   Options
	sc    Scenario
	props []Property
	// w0 is the caller's world, only ever read; root is the run's own
	// copy of it, marked in the visited table at depth 0.
	w0, root *model.World
	visited  *visitedSet

	// stop ends the run early: StopAtFirst hit a violation, Cancel
	// fired, or a worker failed.
	stop atomic.Bool

	violMu     sync.Mutex
	seenViol   map[violKey]struct{}
	violations []Violation

	errMu sync.Mutex
	err   error
}

// worker is one goroutine's private state: hashing scratch, tallies and
// coverage matrix, summed into the Result by finish.
type worker struct {
	e   *engine
	id  int // index among the run's workers
	buf []byte
	cov *coverage

	transitions, misrouted, dropped int
	// maxDepth, truncated and maxFrontier are the driver's to set (what
	// the deepest path is depends on the frontier discipline); expand
	// only records a state the visited table refused.
	maxDepth    int
	truncated   bool
	maxFrontier int
}

// newEngine sets a run up: the engine, its workers, and the root state
// marked visited. A scenario shared by several workers is serialized.
func newEngine(w0 *model.World, props []Property, sc Scenario, opt Options) (*engine, []*worker, error) {
	e := &engine{
		opt:      opt,
		sc:       sc,
		props:    props,
		w0:       w0,
		root:     w0.Clone(),
		visited:  newVisitedSet(opt),
		seenViol: make(map[violKey]struct{}),
	}
	if opt.Workers > 1 {
		e.sc = &lockedScenario{base: sc}
	}
	workers := make([]*worker, opt.Workers)
	for i := range workers {
		workers[i] = &worker{e: e, id: i, cov: newCoverage(w0)}
	}
	var err error
	_, workers[0].buf, err = markVisited(e.visited, e.root, 0, nil)
	return e, workers, err
}

// fail records the run's first error and stops it.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.stop.Store(true)
}

// halted reports whether the run is over, noticing an outside Cancel on
// the way. Drivers ask before each node or walk.
func (wk *worker) halted() bool {
	if wk.e.stop.Load() {
		return true
	}
	if wk.e.opt.Cancel.Cancelled() {
		wk.truncated = true
		wk.e.stop.Store(true)
		return true
	}
	return false
}

// lockedScenario serializes Events calls so stochastic scenarios (the
// random sampler carries RNG state) are safe under concurrent workers.
// Deterministic scenarios — required for search strategies anyway —
// are unaffected beyond the mutex.
type lockedScenario struct {
	mu   sync.Mutex
	base Scenario
}

func (l *lockedScenario) Events(w *model.World) []model.EnvEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Events(w)
}

// fanOut runs f once per worker — the first on the caller's goroutine —
// and returns when all are done. One worker starts no goroutine.
func fanOut(workers []*worker, f func(*worker)) {
	var wg sync.WaitGroup
	for _, wk := range workers[1:] {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			f(wk)
		}(wk)
	}
	f(workers[0])
	wg.Wait()
}

// frame is the scratch one expansion in progress holds on to: the
// enabled steps and the undo record every step is rewound to. DFS
// keeps a frame per depth (an expansion stays open while its children
// are searched), the layered search one per worker.
type frame struct {
	undo  model.Undo
	steps []model.Step
}

// successors receives, from expand, each step that led to a state the
// visited table wants expanded: new, or reached shallower than before.
// w is still in that state when push runs; prev is the path to the
// expanded node; key is the state's visited key (canonical under
// Options.Symmetry), valid until the next step.
type successors interface {
	push(w *model.World, prev *pathNode, applied model.Step, key []byte)
}

// step applies s to w, which stays in the successor state, and does
// what the checker does once per transition: tally it, run the
// monitors, mark the visited table at depth+1. It reports ok=false when
// the run is over — Apply or the table failed, or StopAtFirst saw a
// violation (the violating state is then left unmarked).
func (wk *worker) step(w *model.World, prev *pathNode, s model.Step, depth int) (applied model.Step, mark markResult, ok bool) {
	e := wk.e
	applied, err := w.Apply(s)
	if err != nil {
		e.fail(fmt.Errorf("check: apply %v: %w", s, err))
		return applied, mark, false
	}
	wk.transitions++
	wk.misrouted += applied.Misrouted
	wk.dropped += applied.Dropped
	wk.cov.note(applied)
	if e.checkProps(w, prev, applied) && e.opt.StopAtFirst {
		e.stop.Store(true)
		return applied, mark, false
	}
	if mark, wk.buf, err = markVisited(e.visited, w, depth+1, wk.buf); err != nil {
		e.fail(err)
		return applied, mark, false
	}
	if mark.capped {
		wk.truncated = true
	}
	return applied, mark, true
}

// expand explores every transition out of the state w is in, reached by
// prev at depth: each enabled step is applied in place, checked (step),
// handed to out if it found a state to expand, and rolled back — the
// model's apply/undo discipline, Spin's state-vector restore, instead of
// a clone per transition. It reports false when the run is over.
func (wk *worker) expand(w *model.World, prev *pathNode, depth int, f *frame, out successors) bool {
	f.steps = w.StepsAppend(f.steps[:0], wk.e.sc.Events(w))
	w.Save(&f.undo)
	for _, s := range f.steps {
		applied, mark, ok := wk.step(w, prev, s, depth)
		if ok && mark.expand {
			out.push(w, prev, applied, wk.buf)
		}
		w.Restore(&f.undo)
		if !ok {
			return false
		}
	}
	return true
}

// checkProps evaluates the monitors on w, the state prev extended by
// last reaches, and records new violations. The lock is taken only on
// an actual violation, so concurrent workers evaluate monitors fully in
// parallel, and the counterexample is built only when the violation is
// new: prev may live in a frame or buffer the driver goes on to reuse.
func (e *engine) checkProps(w *model.World, prev *pathNode, last model.Step) bool {
	violated := false
	for _, p := range e.props {
		desc := p.Check(w, last)
		if desc == "" {
			continue
		}
		violated = true
		key := violKey{p.Name(), desc}
		e.violMu.Lock()
		if _, dup := e.seenViol[key]; !dup {
			e.seenViol[key] = struct{}{}
			e.violations = append(e.violations, Violation{Property: p.Name(), Desc: desc,
				Path: materializePath(&pathNode{prev: prev, step: last})})
		}
		e.violMu.Unlock()
	}
	return violated
}

// finish folds the workers into the run's Result. With more than one
// worker the violations are put in canonical order and every
// counterexample, having crossed goroutines, is re-verified.
func (e *engine) finish(workers []*worker) (*Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	res := &Result{
		Covered:    make(map[string]int),
		Violations: e.violations,
		States:     e.visited.size(),
		Visited:    e.visited.stats(),
	}
	for _, wk := range workers {
		res.Transitions += wk.transitions
		res.Misrouted += wk.misrouted
		res.Dropped += wk.dropped
		res.MaxDepth = max(res.MaxDepth, wk.maxDepth)
		res.MaxFrontier = max(res.MaxFrontier, wk.maxFrontier)
		res.Truncated = res.Truncated || wk.truncated
		wk.cov.into(res.Covered)
	}
	if len(workers) > 1 {
		SortViolations(res.Violations)
		if err := Reverify(e.w0, e.props, res.Violations); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Reverify replays every counterexample against the initial world and
// confirms the violated property reports the same description on the
// replayed state. Parallel workers hand over paths across goroutines;
// this is the engine's proof to the caller that no captured path was
// corrupted by frontier reuse and that each violation is reproducible
// before it leaves the package (mirroring the paper's screening →
// validation hand-off, §3.2.3). The scenario fuzzer gives the same
// proof for its counterexamples through it.
func Reverify(w0 *model.World, props []Property, vs []Violation) error {
	// Several monitors may share one property name (per-instance
	// monitors of a multi-UE world, e.g. props.DataServiceOKIn); a
	// violation reproduces when any monitor of its name reports the
	// recorded description on the replayed state.
	byName := make(map[string][]Property, len(props))
	for _, p := range props {
		byName[p.Name()] = append(byName[p.Name()], p)
	}
	for _, v := range vs {
		end, err := Replay(w0, v.Path)
		if err != nil {
			return fmt.Errorf("check: counterexample for %s failed replay re-verification: %w", v.Property, err)
		}
		ps := byName[v.Property]
		if len(ps) == 0 {
			return fmt.Errorf("check: violation of unknown property %q", v.Property)
		}
		var last model.Step
		if len(v.Path) > 0 {
			last = v.Path[len(v.Path)-1]
		}
		reproduced := false
		for _, p := range ps {
			if p.Check(end, last) == v.Desc {
				reproduced = true
				break
			}
		}
		if !reproduced {
			return fmt.Errorf("check: counterexample for %s does not reproduce on replay: no monitor of that name reports %q", v.Property, v.Desc)
		}
	}
	return nil
}

// coverage tallies fired transitions by (process index, transition
// index) so the exploration hot path never builds a "proc/label"
// string key; the counters materialize into a Result.Covered map once
// per run.
type coverage struct {
	w      *model.World
	counts [][]int
}

func newCoverage(w *model.World) *coverage {
	c := &coverage{w: w, counts: make([][]int, len(w.Procs))}
	for i, p := range w.Procs {
		c.counts[i] = make([]int, len(p.M.Spec().Transitions))
	}
	return c
}

// note records an applied step (no-op for drops/discards, which fire
// no transition).
func (c *coverage) note(s model.Step) {
	if s.Label == "" {
		return
	}
	if i, ok := c.w.ProcIndex(s.Proc); ok && s.TransIdx < len(c.counts[i]) {
		c.counts[i][s.TransIdx]++
	}
}

// into adds the counters to a Covered map.
func (c *coverage) into(m map[string]int) {
	for i, p := range c.w.Procs {
		spec := p.M.Spec()
		for ti, n := range c.counts[i] {
			if n > 0 {
				m[p.Name+"/"+spec.Transitions[ti].Name] += n
			}
		}
	}
}
