// Package netemu is the validation-phase substrate of CNetVerifier
// (§3.3, Figure 2 phase 2): a deterministic discrete-event emulator
// that runs the same protocol state machines as the model checker, but
// under virtual time, configurable signaling latencies, per-operator
// policy profiles (OP-I, OP-II) and injected radio loss.
//
// Where the paper drives commercial phones over two US carriers and
// reads QXDM traces, this package drives the emulated device/core
// stacks and reads the internal/trace collector — reproducing the
// validation experiments (Figures 4, 7, 8, 9, 10 and Table 6).
package netemu

import (
	"container/heap"
	"math/rand"
	"time"

	"cnetverifier/internal/stats"
)

// Sim is a deterministic discrete-event scheduler under virtual time.
type Sim struct {
	now time.Duration
	pq  eventHeap
	seq uint64
	rng *rand.Rand
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// idx is the event's current heap position, maintained by Swap so
	// a Timer can remove its event in O(log n); -1 once the event has
	// run or been cancelled.
	idx int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() *event { return h[0] }
func (h eventHeap) empty() bool  { return len(h) == 0 }

// Timer is a handle on one scheduled event, letting its creator cancel
// it before it fires — an armed protocol timer rather than a
// fire-and-forget callback.
type Timer struct {
	s *Sim
	e *event
}

// Pending reports whether the event is still scheduled (it has neither
// run nor been cancelled).
func (t *Timer) Pending() bool { return t != nil && t.e.idx >= 0 }

// Cancel removes the event from the schedule so it never runs and holds
// no queue slot; it reports whether it did (false when the event
// already ran or was cancelled). Cancellation is eager: a cancelled
// timer leaves nothing behind for Pending()/Sim.Pending to count.
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	heap.Remove(&t.s.pq, t.e.idx)
	return true
}

// NewSim returns a simulator with a seeded RNG (deterministic runs).
func NewSim(seed int64) *Sim {
	return &Sim{rng: stats.NewRand(seed)}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation RNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at an absolute virtual time (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) { s.AtTimer(t, fn) }

// After schedules fn d after the current time.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// AtTimer schedules fn at an absolute virtual time (clamped to now) and
// returns a cancellable handle on it.
func (s *Sim) AtTimer(t time.Duration, fn func()) *Timer {
	if t < s.now {
		t = s.now
	}
	e := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.pq, e)
	return &Timer{s: s, e: e}
}

// AfterTimer schedules fn d after the current time and returns a
// cancellable handle on it.
func (s *Sim) AfterTimer(d time.Duration, fn func()) *Timer { return s.AtTimer(s.now+d, fn) }

// Step runs the next pending event; it reports whether one ran.
func (s *Sim) Step() bool {
	if s.pq.empty() {
		return false
	}
	e := heap.Pop(&s.pq).(*event)
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to t.
func (s *Sim) RunUntil(t time.Duration) {
	for !s.pq.empty() && s.pq.peek().at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.pq) }
