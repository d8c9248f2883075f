package check

import (
	"sync/atomic"

	"cnetverifier/internal/model"
)

// This file is the layered frontier driver — the breadth-first search
// behind Strategy BFS at any worker count and behind every DFS/BFS run
// with Options.Workers > 1.
//
// The search is level-synchronous: the frontier is one slice holding
// every state first reached at the current depth. Workers claim
// layerChunk-sized runs of it through an atomic cursor, expand each
// node in place into worker-private next slices and world free lists,
// and the next slices are concatenated into the following layer at a
// barrier. With one worker that is exactly the FIFO order of a
// sequential BFS. What the barrier makes deterministic is spelled out
// in kernel.go.

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

// layerQueue is one worker's side of the frontier, kept across layers:
// its expansion frame, the path arena, the successors found in the
// current layer and recycled worlds. Arena nodes are read by other
// workers in later layers (the barrier is the fence) but only the owner
// appends.
type layerQueue struct {
	frame
	arena stepArena
	next  []node
	// free recycles worlds: an expanded node's world is refreshed with
	// CloneInto for a later successor, reusing its slabs and queues.
	free []*model.World
}

// push copies the successor state into a world of its own. Only a
// transition that discovers a state pays for this copy and a path node
// — in the dense state graphs screening produces, a small fraction.
func (q *layerQueue) push(w *model.World, prev *pathNode, applied model.Step) {
	var child *model.World
	if n := len(q.free); n > 0 {
		child, q.free = q.free[n-1], q.free[:n-1]
	} else {
		child = &model.World{}
	}
	w.CloneInto(child)
	q.next = append(q.next, node{w: child, path: q.arena.append(prev, applied)})
}

// expandAll expands a run of same-depth frontier nodes, each on its own
// world, stopping between nodes once the run is over.
func (q *layerQueue) expandAll(wk *worker, nodes []node, depth int) {
	for _, n := range nodes {
		if wk.halted() || !wk.expand(n.w, n.path, depth, &q.frame, q) {
			return
		}
		q.free = append(q.free, n.w)
	}
}

// runLayered is the layered frontier search. With one worker it is
// sequential BFS, StopAtFirst stopping on the very transition that
// violates.
func runLayered(e *engine, workers []*worker) {
	queues := make([]layerQueue, len(workers)) // indexed by worker id
	frontier := []node{{w: e.root}}
	var spare []node // the previous layer's backing array, reused for the next
	for depth := 0; len(frontier) > 0 && !e.stop.Load(); depth++ {
		workers[0].maxDepth = depth
		if depth >= e.opt.MaxDepth {
			workers[0].truncated = true
			break
		}
		// Workers beyond the number of chunks would find nothing to claim.
		chunks := (len(frontier) + layerChunk - 1) / layerChunk
		var cursor atomic.Int64
		fanOut(workers[:min(len(workers), chunks)], func(wk *worker) {
			for !e.stop.Load() {
				lo := int(cursor.Add(layerChunk)) - layerChunk
				if lo >= len(frontier) {
					return
				}
				queues[wk.id].expandAll(wk, frontier[lo:min(lo+layerChunk, len(frontier))], depth)
			}
		})
		spare = spare[:0]
		for i := range queues {
			spare = append(spare, queues[i].next...)
			queues[i].next = queues[i].next[:0]
		}
		frontier, spare = spare, frontier
	}
}
