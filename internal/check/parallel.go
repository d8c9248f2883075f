package check

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/model"
)

// This file implements the layered frontier engine — the breadth-first
// search behind Strategy BFS at any worker count and behind every
// DFS/BFS run with Options.Workers > 1 — and the walk-splitting driver
// for parallel RandomWalk.
//
// The search is level-synchronous: the frontier is one slice holding
// every state first reached at the current depth. Workers claim
// layerChunk-sized runs of it through an atomic cursor, expand each
// node in place (Save/Apply/mark/Restore) into worker-private next
// slices, tallies, coverage matrix and world free list, and the next
// slices are concatenated into the following layer at a barrier. With
// one worker that is exactly the FIFO order of a sequential BFS.
//
// Determinism contract (asserted by TestParallelDeterminism). A layer
// is complete before the next one starts, so every state is claimed in
// the visited table at its minimal depth and expanded exactly once,
// whichever worker gets there first. For the same world and options
// these are therefore the same numbers at every worker count:
//
//   - States, Transitions, MaxDepth, Truncated, Misrouted, Dropped and
//     the Covered counts;
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
// sampled schedules are the same however walks land on workers. Every
// counterexample handed across goroutines is re-verified with Replay
// before the result is returned.

// layerChunk is the number of frontier nodes a worker claims at a time.
// A layer no wider than one chunk runs inline on the caller: the small
// worlds (a few hundred states) never start a goroutine.
const layerChunk = 64

// node is one frontier entry: a state awaiting expansion and the path
// that first reached it. Its depth is its layer's.
type node struct {
	w    *model.World
	path *pathNode
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

// engine is the state of one layered search that its workers share.
type engine struct {
	opt     Options
	sc      Scenario
	props   []Property
	visited *visitedSet

	// stop ends the search early: StopAtFirst hit a violation, Cancel
	// fired, or a worker failed.
	stop atomic.Bool

	violMu     sync.Mutex
	seenViol   map[violKey]struct{}
	violations []Violation

	errMu sync.Mutex
	err   error
}

func (e *engine) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.stop.Store(true)
}

// layerWorker is one worker's private state, kept across layers: the
// scratch every expansion reuses (hashing buffer, step slice, apply/
// undo journal), the path arena, the successors found in the current
// layer, recycled worlds, and plain tallies summed after the search.
// Arena nodes are read by other workers in later layers (the barrier
// is the fence) but only the owner appends.
type layerWorker struct {
	e *engine

	buf   []byte
	steps []model.Step
	undo  model.Undo
	arena stepArena
	next  []node
	// free recycles worlds: an expanded node's world is refreshed with
	// CloneInto for a later successor, reusing its slabs and queues.
	free []*model.World

	cov                             *coverage
	transitions, misrouted, dropped int
	truncated                       bool
}

func (wk *layerWorker) getWorld() *model.World {
	if n := len(wk.free); n > 0 {
		w := wk.free[n-1]
		wk.free = wk.free[:n-1]
		return w
	}
	return &model.World{}
}

// expandAll expands a run of same-depth frontier nodes, stopping
// between nodes once the search is over.
func (wk *layerWorker) expandAll(nodes []node, depth int) {
	e := wk.e
	for _, n := range nodes {
		if e.stop.Load() {
			return
		}
		if e.opt.Cancel.Cancelled() {
			wk.truncated = true
			e.stop.Store(true)
			return
		}
		wk.expand(n, depth)
	}
}

// expand explores every transition out of n on the node's own world:
// apply the step in place, evaluate monitors, mark the visited table,
// and roll back. Only a transition that discovers a state pays for a
// world copy and a path node — in the dense state graphs screening
// produces, that is a small fraction of transitions.
func (wk *layerWorker) expand(n node, depth int) {
	e := wk.e
	wk.steps = n.w.StepsAppend(wk.steps[:0], e.sc.Events(n.w))
	n.w.Save(&wk.undo)
	for _, s := range wk.steps {
		applied, err := n.w.Apply(s)
		if err != nil {
			e.setErr(fmt.Errorf("check: apply %v: %w", s, err))
			return
		}
		wk.transitions++
		wk.misrouted += applied.Misrouted
		wk.dropped += applied.Dropped
		wk.cov.note(applied)
		if e.checkProps(n.w, n.path, applied) && e.opt.StopAtFirst {
			e.stop.Store(true)
			return
		}
		var mark markResult
		if mark, wk.buf, err = markVisited(e.visited, n.w, depth+1, wk.buf); err != nil {
			e.setErr(err)
			return
		}
		switch {
		case mark.capped:
			wk.truncated = true
		case mark.expand:
			child := wk.getWorld()
			n.w.CloneInto(child)
			wk.next = append(wk.next, node{w: child, path: wk.arena.append(n.path, applied)})
		}
		n.w.Restore(&wk.undo)
	}
	wk.free = append(wk.free, n.w)
}

// checkProps evaluates the monitors on a worker-private world and
// records new violations under the shared lock. The lock is taken only
// on an actual violation, so the monitor evaluations themselves run
// fully in parallel; the counterexample (prev extended by last) is
// built only when the violation is new.
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

// expandLayer expands the whole frontier, all of it at depth, into the
// workers' next slices and returns when every worker is done.
func (e *engine) expandLayer(workers []*layerWorker, frontier []node, depth int) {
	chunks := (len(frontier) + layerChunk - 1) / layerChunk
	if len(workers) == 1 || chunks == 1 {
		workers[0].expandAll(frontier, depth)
		return
	}
	var cursor atomic.Int64
	claim := func(wk *layerWorker) {
		for !e.stop.Load() {
			lo := int(cursor.Add(layerChunk)) - layerChunk
			if lo >= len(frontier) {
				return
			}
			wk.expandAll(frontier[lo:min(lo+layerChunk, len(frontier))], depth)
		}
	}
	var wg sync.WaitGroup
	for _, wk := range workers[1:min(len(workers), chunks)] {
		wg.Add(1)
		go func(wk *layerWorker) {
			defer wg.Done()
			claim(wk)
		}(wk)
	}
	claim(workers[0])
	wg.Wait()
}

// runLayered is the layered frontier search. With opt.Workers == 1 it
// is sequential BFS: violations in discovery order, StopAtFirst
// stopping on the very transition that violates.
func runLayered(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	e := &engine{
		opt:      opt,
		sc:       sc,
		props:    props,
		visited:  newVisitedSet(opt),
		seenViol: make(map[violKey]struct{}),
	}
	if opt.Workers > 1 {
		e.sc = &lockedScenario{base: sc}
	}
	workers := make([]*layerWorker, opt.Workers)
	for i := range workers {
		workers[i] = &layerWorker{e: e, cov: newCoverage(w0)}
	}

	root := w0.Clone()
	if _, _, err := markVisited(e.visited, root, 0, nil); err != nil {
		return nil, err
	}
	res := &Result{Covered: make(map[string]int)}
	frontier := []node{{w: root}}
	var spare []node // the previous layer's backing array, reused for the next
	for depth := 0; len(frontier) > 0 && !e.stop.Load(); depth++ {
		res.MaxDepth = depth
		if depth >= opt.MaxDepth {
			res.Truncated = true
			break
		}
		e.expandLayer(workers, frontier, depth)
		spare = spare[:0]
		for _, wk := range workers {
			spare = append(spare, wk.next...)
			wk.next = wk.next[:0]
		}
		frontier, spare = spare, frontier
	}
	if e.err != nil {
		return nil, e.err
	}

	for _, wk := range workers {
		res.Transitions += wk.transitions
		res.Misrouted += wk.misrouted
		res.Dropped += wk.dropped
		res.Truncated = res.Truncated || wk.truncated
		wk.cov.into(res.Covered)
	}
	res.Violations = e.violations
	finishVisited(res, e.visited)
	if opt.Workers > 1 {
		sortViolations(res.Violations)
		if err := reverify(w0, props, res.Violations); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runParallelWalk(w0 *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	visited := newVisitedSet(opt)
	if _, _, err := markVisited(visited, w0, 0, nil); err != nil {
		return nil, err
	}
	locked := &lockedScenario{base: sc}

	var nextWalk atomic.Int64
	var stop atomic.Bool
	results := make([]*Result, opt.Workers)
	errs := make([]error, opt.Workers)
	var wg sync.WaitGroup
	for id := 0; id < opt.Workers; id++ {
		results[id] = &Result{Covered: make(map[string]int)}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var buf []byte
			var wk walker
			seen := make(map[violKey]struct{})
			for !stop.Load() && !opt.Cancel.Cancelled() {
				walk := int(nextWalk.Add(1)) - 1
				if walk >= opt.Walks {
					return
				}
				halt, err := oneWalk(w0, &wk, props, locked, opt, walk, visited, &buf, seen, results[id])
				if err != nil {
					errs[id] = err
					stop.Store(true)
					return
				}
				if halt {
					stop.Store(true)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Covered: make(map[string]int)}
	coveredPer := make([]map[string]int, 0, len(results))
	for _, r := range results {
		res.Transitions += r.Transitions
		res.Misrouted += r.Misrouted
		res.Dropped += r.Dropped
		if r.MaxDepth > res.MaxDepth {
			res.MaxDepth = r.MaxDepth
		}
		res.Truncated = res.Truncated || r.Truncated
		res.Violations = append(res.Violations, r.Violations...)
		coveredPer = append(coveredPer, r.Covered)
	}
	if opt.Cancel.Cancelled() {
		res.Truncated = true
	}
	res.Covered = mergeCovered(coveredPer)
	finishVisited(res, visited)
	// Workers deduplicate violations only against their own walks;
	// collapse cross-worker duplicates to the canonically smallest
	// counterexample per (property, description).
	res.Violations = dedupeViolations(res.Violations)
	if err := reverify(w0, props, res.Violations); err != nil {
		return nil, err
	}
	return res, nil
}

func mergeCovered(per []map[string]int) map[string]int {
	out := make(map[string]int)
	for _, m := range per {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

func dedupeViolations(vs []Violation) []Violation {
	sortViolations(vs)
	out := vs[:0]
	for _, v := range vs {
		if len(out) > 0 && out[len(out)-1].Property == v.Property && out[len(out)-1].Desc == v.Desc {
			continue
		}
		out = append(out, v)
	}
	return out
}

// reverify replays every counterexample against the initial world and
// confirms the violated property reports the same description on the
// replayed state. Parallel workers hand over paths across goroutines;
// this is the engine's proof to the caller that no captured path was
// corrupted by frontier reuse and that each violation is reproducible
// before it leaves the package (mirroring the paper's screening →
// validation hand-off, §3.2.3).
func reverify(w0 *model.World, props []Property, vs []Violation) error {
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
