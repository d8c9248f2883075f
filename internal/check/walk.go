package check

import (
	"math/rand"
	"sync/atomic"

	"cnetverifier/internal/model"
	"cnetverifier/internal/stats"
)

// walkSeed derives an independent RNG seed for one walk from the run
// seed (SplitMix64 finalizer), so walk w samples the same schedule
// whether it runs first, last, or on another goroutine.
func walkSeed(seed int64, walk int) int64 {
	z := uint64(seed) + uint64(walk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// walker is per-worker scratch for random walks: a world refreshed with
// CloneInto at the start of each walk, the RNG reseeded per walk, the
// steps buffer, and the nodes of the current walk's path (a walk is at
// most MaxDepth long) with its last node, at, so sampling thousands of
// schedules reuses one allocation footprint.
type walker struct {
	w     model.World
	rng   *rand.Rand
	steps []model.Step
	path  []pathNode
	at    *pathNode
}

func (k *walker) trace(last model.Step) ([]model.Step, error) {
	return materializePath(&pathNode{prev: k.at, step: last}), nil
}

// runWalks is the RandomWalk driver: workers draw walk indices off a
// shared counter until Options.Walks are sampled. With one worker the
// walks run in index order on the caller's goroutine.
func runWalks(e *engine, workers []*worker) {
	var next atomic.Int64
	fanOut(workers, func(wk *worker) {
		k := &walker{rng: stats.NewRand(0), path: make([]pathNode, e.opt.MaxDepth)}
		for !wk.halted() {
			walk := int(next.Add(1)) - 1
			if walk >= e.opt.Walks {
				return
			}
			wk.walk(k, walk)
		}
	})
}

// walk samples one maximal schedule with the walk's own RNG stream. It
// has no frontier and never rolls back: enumerate, pick one step, and
// let the kernel apply, tally, check and mark it.
func (wk *worker) walk(k *walker, walk int) {
	e := wk.e
	k.rng.Seed(walkSeed(e.opt.Seed, walk))
	e.root.CloneInto(&k.w)
	k.at = nil
	for depth := 0; depth < e.opt.MaxDepth; depth++ {
		k.steps = k.w.StepsAppend(k.steps[:0], e.sc.Events(&k.w))
		if len(k.steps) == 0 {
			return
		}
		wk.maxDepth = max(wk.maxDepth, depth+1)
		applied, _, ok := wk.step(&k.w, k.steps[k.rng.Intn(len(k.steps))], depth, k)
		if !ok {
			return
		}
		k.path[depth] = pathNode{prev: k.at, step: applied}
		k.at = &k.path[depth]
	}
}
