package check

import (
	"bytes"
	"fmt"
	"math"
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
// node into worker-private next slices, and the next slices are
// concatenated into the following layer at a barrier. With one worker
// that is exactly the FIFO order of a sequential BFS. What the barrier
// makes deterministic is spelled out in kernel.go.
//
// A frontier node holds its state as the state's plain collapsed key
// (model.World.AppendKey) — a few bytes where a world copy took
// kilobytes. A worker rebuilds each node it claims into the one world
// it owns (model.World.LoadKey) and expands it there; the interner
// keeps the value behind every piece id, so a key is all a state
// needs.

// layerChunk is the number of frontier nodes a worker claims at a time.
// A layer no wider than one chunk runs inline on the caller: the small
// worlds (a few hundred states) never start a goroutine.
const layerChunk = 64

// node is one frontier entry: a state awaiting expansion, as its plain
// key, and how it was first reached — the trail entry of the state it
// was discovered from and the discovering step's index (path.go). Its
// depth is its layer's; its own trail entry is its layer's base plus its
// position in the layer.
type node struct {
	key       []byte
	prev, idx uint32
}

// layerQueue is one worker's side of the frontier, kept across layers:
// its expansion frame, the world it rebuilds nodes into, the successors
// found in the current layer and the arenas holding their keys, and the
// scratch a counterexample replay runs in. Arena keys are read by other
// workers in later layers (the barrier is the fence) but only the owner
// appends.
type layerQueue struct {
	frame
	e     *engine
	w     *model.World
	in    *model.Interner
	canon bool   // the visited key is canonical; push takes the plain one
	kbuf  []byte // plain-key scratch: push's under canon, trace's
	next  []node
	// keys holds the successors' keys by layer parity: the keys written
	// while expanding layer d are layer d+1's frontier, read until the
	// barrier after it, so the arena is free again for layer d+2.
	keys [2]keyArena
	cur  *keyArena
	// at is the node being expanded: its trail entry and its key.
	at    uint32
	atKey []byte
	// replay and rsteps are the world and the enumeration scratch a
	// captured counterexample is replayed in — this worker's own, never
	// a world another worker expands in.
	replay model.World
	rsteps []model.Step
}

// push files a successor: its key, which markVisited has just built
// into key, goes into the current key arena, with the node's trail
// entry and the step's index. Only a transition that discovers a state
// pays for this — in the dense state graphs screening produces, a small
// fraction.
func (q *layerQueue) push(w *model.World, idx int, _ model.Step, key []byte) {
	if q.canon {
		// A canonical representative would not replay the path's steps:
		// the frontier holds the state the path actually reaches.
		_, q.kbuf = w.AppendKey(q.in, q.kbuf)
		key = q.kbuf
	}
	q.next = append(q.next, node{key: q.cur.append(key), prev: q.at, idx: uint32(idx)})
}

// trace rebuilds the counterexample through the node being expanded
// and last, the step just applied to it: the node's trail is replayed
// from the run's start world in the queue's replay world, which must
// reach the state the node holds, and last — as the expansion applied
// it — ends it.
func (q *layerQueue) trace(last model.Step) ([]model.Step, error) {
	e := q.e
	path, rsteps, err := replayTrail(&e.trails, q.at, e.root, &q.replay, e.sc, q.rsteps)
	q.rsteps = rsteps
	if err != nil {
		return nil, err
	}
	_, q.kbuf = q.replay.AppendKey(q.in, q.kbuf)
	if !bytes.Equal(q.kbuf, q.atKey) {
		return nil, fmt.Errorf("check: counterexample replay of %d steps reached another state than the search expanded: the scenario's Events is not a pure function of the world", len(path))
	}
	return append(path, ownStep(last)), nil
}

// expandAll expands a run of same-depth frontier nodes, the first of
// which has trail entry at, each rebuilt in turn into the queue's
// world, stopping between nodes once the run is over.
func (q *layerQueue) expandAll(wk *worker, nodes []node, at uint32, depth int) {
	for i, n := range nodes {
		if wk.halted() {
			return
		}
		q.at, q.atKey = at+uint32(i), n.key
		q.w.LoadKey(q.in, n.key)
		if !wk.expand(q.w, depth, &q.frame, q) {
			return
		}
	}
}

// keyArenaChunk is the key arena's allocation granularity.
const keyArenaChunk = 8 << 10

// keyArena holds one layer's keys in chunks that are kept for reuse: a
// key's bytes never move once written.
type keyArena struct {
	chunks [][]byte
	cur    int // the chunk being filled
}

// append copies k into the arena and returns the copy.
func (a *keyArena) append(k []byte) []byte {
	for a.cur < len(a.chunks) && cap(a.chunks[a.cur])-len(a.chunks[a.cur]) < len(k) {
		a.cur++
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, 0, max(keyArenaChunk, len(k))))
	}
	c := &a.chunks[a.cur]
	n := len(*c)
	*c = append(*c, k...)
	return (*c)[n:len(*c):len(*c)]
}

// reset empties the arena, keeping its chunks.
func (a *keyArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// runLayered is the layered frontier search. With one worker it is
// sequential BFS, StopAtFirst stopping on the very transition that
// violates.
func runLayered(e *engine, workers []*worker) {
	in := e.visited.in
	queues := make([]layerQueue, len(workers)) // indexed by worker id
	for i := range queues {
		queues[i].e, queues[i].in, queues[i].canon = e, in, e.visited.canon
	}
	_, rootKey := e.root.AppendKey(in, nil)
	frontier := []node{{key: rootKey}}
	var spare []node // the previous layer's backing array, reused for the next
	for depth := 0; len(frontier) > 0 && !e.stop.Load(); depth++ {
		workers[0].maxDepth = depth
		workers[0].maxFrontier = max(workers[0].maxFrontier, len(frontier))
		if depth >= e.opt.MaxDepth {
			workers[0].truncated = true
			break
		}
		// The layer's trail entries, in frontier order: node i's is base+i.
		base := e.trails.n
		for _, n := range frontier {
			if _, ok := e.trails.append(trail{prev: n.prev, idx: n.idx}); !ok {
				e.fail(fmt.Errorf("check: layered search: more than %d states to trace", uint32(math.MaxUint32)))
				return
			}
		}
		// Workers beyond the number of chunks would find nothing to claim.
		chunks := (len(frontier) + layerChunk - 1) / layerChunk
		var cursor atomic.Int64
		fanOut(workers[:min(len(workers), chunks)], func(wk *worker) {
			q := &queues[wk.id]
			if q.w == nil {
				q.w = e.root.Clone()
			}
			q.cur = &q.keys[depth&1]
			q.cur.reset()
			for !e.stop.Load() {
				lo := int(cursor.Add(layerChunk)) - layerChunk
				if lo >= len(frontier) {
					return
				}
				q.expandAll(wk, frontier[lo:min(lo+layerChunk, len(frontier))], base+uint32(lo), depth)
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
