package check

import "cnetverifier/internal/model"

// Violation-path bookkeeping, shared by the three drivers.
//
// No driver carries a root-to-node step slice (O(depth) steps copied
// per node). A path is a chain of parent pointers instead: each node
// holds one step and a pointer to its parent, and a full path
// materializes only when a violation is actually captured. Where the
// nodes live is the driver's business: the layered search bump-
// allocates one per state that enters the frontier from a per-worker
// arena, immutable once written, so extending a node never disturbs a
// sibling; DFS and the walks keep one reusable node per depth.
type pathNode struct {
	prev *pathNode
	step model.Step
}

// stepArenaChunk is the arena allocation granularity. Chunks are
// referenced by the nodes inside them, so an exhausted chunk is freed
// by the GC exactly when no live node (frontier or captured violation)
// points into it.
const stepArenaChunk = 512

// stepArena bump-allocates path nodes. Each worker owns one; nodes may
// be read by other workers in later layers (the layer barrier is the
// fence), but only the owner appends.
type stepArena struct {
	free []pathNode
}

// append allocates a node extending prev by step.
func (a *stepArena) append(prev *pathNode, step model.Step) *pathNode {
	if len(a.free) == 0 {
		a.free = make([]pathNode, stepArenaChunk)
	}
	n := &a.free[0]
	a.free = a.free[1:]
	n.prev = prev
	n.step = step
	return n
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
		out[i] = n.step
		if out[i].Notes != nil {
			out[i].Notes = append([]string(nil), out[i].Notes...)
		}
	}
	return out
}
