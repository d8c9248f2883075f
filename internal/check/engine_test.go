package check

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetTake(t *testing.T) {
	b := NewBudget(2)
	if !b.take() || !b.take() {
		t.Fatal("budget refused tokens it holds")
	}
	if b.take() {
		t.Fatal("budget granted a token past its pool")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", b.Remaining())
	}
	var nilBudget *Budget
	for i := 0; i < 10; i++ {
		if !nilBudget.take() {
			t.Fatal("nil budget must be unlimited")
		}
	}
}

// TestBudgetTakeRace hammers a one-token budget from 64 goroutines.
// The take fast path is a bare atomic Add with overshoot repair, so the
// invariants under contention are: exactly one winner, no double grant,
// and Remaining settles at 0 (never negative) once the dust clears.
// Run with -race to let the detector see the contention too.
func TestBudgetTakeRace(t *testing.T) {
	for round := 0; round < 100; round++ {
		b := NewBudget(1)
		var (
			granted atomic.Int64
			start   sync.WaitGroup
			done    sync.WaitGroup
		)
		start.Add(1)
		for g := 0; g < 64; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				if b.take() {
					granted.Add(1)
				}
				if r := b.Remaining(); r < 0 {
					t.Errorf("Remaining = %d mid-flight, want >= 0", r)
				}
			}()
		}
		start.Done()
		done.Wait()
		if n := granted.Load(); n != 1 {
			t.Fatalf("round %d: %d goroutines took the single token", round, n)
		}
		if r := b.Remaining(); r != 0 {
			t.Fatalf("round %d: Remaining = %d after exhaustion, want 0", round, r)
		}
	}
}

func TestCancelFlag(t *testing.T) {
	var nilCancel *Cancel
	if nilCancel.Cancelled() {
		t.Fatal("nil Cancel reports cancelled")
	}
	c := &Cancel{}
	if c.Cancelled() {
		t.Fatal("fresh Cancel reports cancelled")
	}
	c.Cancel()
	if !c.Cancelled() {
		t.Fatal("Cancel() did not stick")
	}
}

// TestWalkSeedIndependence pins the property the parallel walk engine
// rests on: a walk's RNG seed depends only on (run seed, walk index),
// and nearby indices get well-separated streams.
func TestWalkSeedIndependence(t *testing.T) {
	if walkSeed(1, 0) != walkSeed(1, 0) {
		t.Fatal("walkSeed is not a pure function")
	}
	seen := make(map[int64]int)
	for w := 0; w < 1000; w++ {
		s := walkSeed(7, w)
		if prev, dup := seen[s]; dup {
			t.Fatalf("walks %d and %d share seed %#x", prev, w, s)
		}
		seen[s] = w
	}
	if walkSeed(1, 5) == walkSeed(2, 5) {
		t.Fatal("different run seeds produced the same walk seed")
	}
}

// TestParallelMaxStates asserts the state-count reservation holds the
// cap exactly under concurrent discovery.
func TestParallelMaxStates(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, nil, moveScenario(), Options{MaxDepth: 50, MaxStates: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.States > 5 {
		t.Fatalf("States = %d, want <= 5", res.States)
	}
	if !res.Truncated {
		t.Fatal("capped run not marked truncated")
	}
}

// TestParallelStopAtFirst: the parallel engine honors StopAtFirst and
// still returns a replay-verified counterexample.
func TestParallelStopAtFirst(t *testing.T) {
	w := counterWorld(t)
	res, err := Run(w, []Property{limitProp{limit: 3}}, moveScenario(),
		Options{MaxDepth: 20, Workers: 4, StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("StopAtFirst run found no violation")
	}
	end, err := Replay(w, res.Violations[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if end.Proc("C").M.Var("n") < 3 {
		t.Fatalf("replayed counterexample ends with n=%d, want >=3", end.Proc("C").M.Var("n"))
	}
}

// TestParallelCancelTruncates: a pre-cancelled run stops immediately
// and reports truncation.
func TestParallelCancelTruncates(t *testing.T) {
	c := &Cancel{}
	c.Cancel()
	for _, workers := range []int{1, 4} {
		w := counterWorld(t)
		res, err := Run(w, nil, moveScenario(), Options{MaxDepth: 50, Workers: workers, Cancel: c})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Fatalf("workers=%d: cancelled run not marked truncated", workers)
		}
	}
}

// TestSharedBudgetAcrossRuns: two runs drawing from one pool together
// never exceed it, and the second run starves.
func TestSharedBudgetAcrossRuns(t *testing.T) {
	b := NewBudget(6)
	w := counterWorld(t)
	r1, err := Run(w, nil, moveScenario(), Options{MaxDepth: 50, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w, nil, moveScenario(), Options{MaxDepth: 50, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	// The root states are pre-counted before the budget check, so only
	// discovered states draw tokens; the sum stays within the pool.
	if r1.States+r2.States > 6+2 {
		t.Fatalf("runs used %d + %d states on a 6-token pool", r1.States, r2.States)
	}
	if !r2.Truncated {
		t.Fatal("second run on a drained pool not truncated")
	}
}
