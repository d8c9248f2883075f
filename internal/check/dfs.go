package check

import (
	"fmt"

	"cnetverifier/internal/model"
)

// dfsFrame is one level of the depth-first stack: the open expansion of
// the node at that depth, the children it still has to descend into,
// the path to the node (at) and the node's place on the paths below it.
// Frames are reused for every node the search visits at their depth, so
// steady-state exploration allocates nothing; the path nodes being part
// of the frames is why a counterexample must be materialized the moment
// it is captured.
type dfsFrame struct {
	frame
	children []model.Step
	at       *pathNode
	path     pathNode
}

func (f *dfsFrame) push(_ *model.World, _ int, applied model.Step, _ []byte) {
	f.children = append(f.children, applied)
}

func (f *dfsFrame) trace(last model.Step) ([]model.Step, error) {
	return materializePath(&pathNode{prev: f.at, step: last}), nil
}

// dfs is the depth-first driver: the kernel run over a stack of frames
// on a single world explored in place.
type dfs struct {
	wk     *worker
	w      *model.World
	frames []*dfsFrame
}

// runDFS is sequential depth-first search (the default; mirrors Spin's).
// Min-depth marking makes it re-expand a state it later reaches by a
// shorter path, which is what keeps a depth-bounded run's state set
// independent of search order (see visitedSet).
func runDFS(e *engine, wk *worker) {
	d := &dfs{wk: wk, w: e.root}
	d.visit(nil, 0)
}

// visit expands the node the world is in, reached by path at depth, and
// then searches below it. Children are checked in step order and
// descended into in reverse — the order of a stack the children were
// pushed on, which the golden traces and StopAtFirst's first
// counterexample pin. A descent re-applies the child's step, already
// annotated and already counted by expand.
func (d *dfs) visit(path *pathNode, depth int) {
	wk, e := d.wk, d.wk.e
	if wk.halted() {
		return
	}
	wk.maxDepth = max(wk.maxDepth, depth)
	if depth >= e.opt.MaxDepth {
		wk.truncated = true
		return
	}
	for len(d.frames) <= depth+1 {
		d.frames = append(d.frames, &dfsFrame{})
	}
	f, child := d.frames[depth], d.frames[depth+1]
	f.children, f.at = f.children[:0], path
	if !wk.expand(d.w, depth, &f.frame, f) {
		return
	}
	for i := len(f.children) - 1; i >= 0 && !e.stop.Load(); i-- {
		if _, err := d.w.Apply(f.children[i]); err != nil {
			e.fail(fmt.Errorf("check: apply %v: %w", f.children[i], err))
			return
		}
		child.path = pathNode{prev: path, step: f.children[i]}
		d.visit(&child.path, depth+1)
		d.w.Restore(&f.undo)
	}
}
