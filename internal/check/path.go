package check

import (
	"errors"
	"fmt"
	"math"

	"cnetverifier/internal/model"
)

// Counterexample bookkeeping, shared by the three drivers.
//
// No driver carries a root-to-node step slice (O(depth) steps copied
// per node), and a path becomes a []model.Step only when a violation is
// actually captured. Until then each driver keeps it its own way:
//
//   - DFS and the random walks keep one reusable pathNode per depth — a
//     parent pointer and the applied step — so the live path is at most
//     MaxDepth nodes however many states the run visits, and
//     materializePath flattens it.
//   - The layered search keeps a trail, the way Spin keeps a .trail: a
//     state is one 8-byte entry of the run's trailArena, the entry of
//     the state it was discovered from and the index of the step in
//     that state's StepsAppend order. A captured violation's path is
//     rebuilt by replaying the indices from the run's start world (the
//     cluster projection under POR) through StepsAppend and Apply, in a
//     scratch world the capturing worker owns, so every Label, Notes,
//     Misrouted and Dropped comes out exactly as the expansion produced
//     it. The frontier holds no step, and no step's Notes, at all.
//
// Replay is sound only if enumeration is a pure function of the world:
// the step at an index must be the step the expansion took there. The
// model's StepsAppend is; a scenario's Events must be too. A scenario
// that draws from an RNG says so (Stochastic) and the layered search
// refuses it with ErrStochasticScenario — there is no fallback. Replay
// also compares the state it reaches with the one the expansion held,
// so a scenario that is impure without saying so fails the run instead
// of yielding a wrong path.

// pathNode is one step of a DFS or walk path: the step as applied, and
// the node of the step before it.
type pathNode struct {
	prev *pathNode
	step model.Step
}

// pathLen returns the number of steps on the node's path.
func pathLen(n *pathNode) int {
	len := 0
	for ; n != nil; n = n.prev {
		len++
	}
	return len
}

// materializePath flattens the node's path into a freshly owned step
// slice, deep-copying per-step Notes: a captured counterexample must
// not alias anything the drivers keep recycling.
func materializePath(n *pathNode) []model.Step {
	out := make([]model.Step, pathLen(n))
	for i := len(out) - 1; n != nil; i, n = i-1, n.prev {
		out[i] = ownStep(n.step)
	}
	return out
}

// ownStep returns s with Notes of its own.
func ownStep(s model.Step) model.Step {
	if s.Notes != nil {
		s.Notes = append([]string(nil), s.Notes...)
	}
	return s
}

// Stochastic is implemented by a scenario whose Events is not a pure
// function of the world — scenario.Sampler draws from an RNG — and
// reports true. A scenario wrapping another forwards its answer.
type Stochastic interface {
	Stochastic() bool
}

// isStochastic reports whether sc declares itself stochastic.
func isStochastic(sc Scenario) bool {
	s, ok := sc.(Stochastic)
	return ok && s.Stochastic()
}

// ErrStochasticScenario is returned by a layered search (Strategy BFS,
// or Workers > 1) over a Stochastic scenario: the search rebuilds
// counterexamples by replaying step indices, which a scenario drawing
// from an RNG cannot reproduce. Random walks accept such scenarios.
var ErrStochasticScenario = errors.New("check: the layered search replays counterexamples from step indices and needs a scenario whose Events is a pure function of the world; this one is stochastic (use RandomWalk)")

// trail is one layered-search state's entry in the trail arena: the
// entry of the state it was discovered from, and the index of the
// discovering step in that state's StepsAppend order. Entry 0 is the
// run's start state, whose fields mean nothing.
type trail struct {
	prev, idx uint32
}

// trailChunk is the trail arena's allocation granularity, in entries.
const trailChunk = 4096

// trailArena holds a layered run's trail entries, addressed by index,
// in chunks that never move. Only the coordinator appends — at a layer
// barrier, which is the fence — and workers read it during a layer.
// The entries hold no pointers, so the collector never scans them.
type trailArena struct {
	chunks [][]trail
	n      uint32
}

// append adds an entry and returns its index; ok is false, and nothing
// is added, when the arena is full (an index must fit a uint32).
func (a *trailArena) append(t trail) (i uint32, ok bool) {
	if a.n == math.MaxUint32 {
		return 0, false
	}
	if a.n%trailChunk == 0 {
		a.chunks = append(a.chunks, make([]trail, 0, trailChunk))
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = append(*c, t)
	a.n++
	return a.n - 1, true
}

// at returns entry i.
func (a *trailArena) at(i uint32) trail {
	return a.chunks[i/trailChunk][i%trailChunk]
}

// indices returns the step indices from the start state to entry i, in
// path order.
func (a *trailArena) indices(i uint32) []uint32 {
	n := 0
	for j := i; j != 0; j = a.at(j).prev {
		n++
	}
	out := make([]uint32, n)
	for ; i != 0; i = a.at(i).prev {
		n--
		out[n] = a.at(i).idx
	}
	return out
}

// replayTrail rebuilds the steps of the trail ending at entry i: from
// w0, it re-enumerates each state's steps under sc and applies the one
// at the recorded index. w is the caller's scratch world, left in the
// state the trail reaches; steps is enumeration scratch, returned for
// reuse. The path has room for one more step.
func replayTrail(a *trailArena, i uint32, w0, w *model.World, sc Scenario, steps []model.Step) (path, scratch []model.Step, err error) {
	idxs := a.indices(i)
	path = make([]model.Step, len(idxs), len(idxs)+1)
	w0.CloneInto(w)
	for d, idx := range idxs {
		steps = w.StepsAppend(steps[:0], sc.Events(w))
		if int(idx) >= len(steps) {
			return nil, steps, fmt.Errorf("check: counterexample replay: step %d chooses step %d of %d", d, idx, len(steps))
		}
		if path[d], err = w.Apply(steps[idx]); err != nil {
			return nil, steps, fmt.Errorf("check: counterexample replay: step %d (%v): %w", d, steps[idx], err)
		}
	}
	return path, steps, nil
}
