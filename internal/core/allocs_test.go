package core

import (
	"runtime"
	"testing"
)

// maxAllocsPerState is the checked-in steady-state allocation budget
// for sequential screening, in heap allocations per distinct state
// reached. The interned-slab engine with the flat fingerprint visited
// table screens S1 at ~7.3 allocs/state (the residue is scenario event
// construction, protocol action closures and violation bookkeeping —
// the clone/encode/hash/mark hot path itself is allocation-free after
// warm-up); the sharded-map engine sat near 9.4 and the pre-slab
// engine near 178. The budget leaves ~1.8x headroom for runtime and
// toolchain drift while still catching any reintroduction of per-state
// cloning, map-based encoding, or per-mark key materialization.
const maxAllocsPerState = 13.0

// TestScreenAllocBudget is the allocation regression guard: a warm
// sequential screen of the S1 world must stay under the checked-in
// allocs-per-state budget. It complements BenchmarkScreenWorlds —
// benchmarks report drift, this test fails the build on it.
func TestScreenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := S1World(false)
	opt := s.Options
	opt.SkipLint = true // lint probing is one-shot work, not steady state

	// Warm run: populates the fsm layout caches and the per-spec lint
	// probe memo so AllocsPerRun sees steady state only.
	r, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.States == 0 {
		t.Fatal("S1 screen explored no states")
	}

	avg := testing.AllocsPerRun(5, func() {
		if _, err := Screen(s, opt); err != nil {
			t.Fatal(err)
		}
	})
	perState := avg / float64(r.Result.States)
	t.Logf("S1: %d states, %.0f allocs/run, %.2f allocs/state (budget %.0f)",
		r.Result.States, avg, perState, maxAllocsPerState)
	if perState > maxAllocsPerState {
		t.Fatalf("screening allocates %.2f allocs/state, budget is %.0f: the clone-free hot path regressed",
			perState, maxAllocsPerState)
	}
}

// TestScreenSymAllocBudget extends the allocation guard to symmetry
// reduction: a warm screen of the shared-core 2-UE world with
// Options.Symmetry must hold the same allocs-per-state budget as plain
// screening. EncodeCanonical keeps all working storage in per-world
// scratch, so canonicalizing the visited set adds no per-state heap
// allocations; the only extra work is the per-run violation closure,
// which amortizes to noise. The 2x cross-check against the plain run
// catches a regression that hides under the absolute budget.
func TestScreenSymAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := MultiUEWorldShared(2, false)
	opt := s.Options
	opt.SkipLint = true

	perState := func(sym bool) float64 {
		o := opt
		o.Symmetry = sym
		r, err := Screen(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.States == 0 {
			t.Fatal("shared 2-UE screen explored no states")
		}
		avg := testing.AllocsPerRun(5, func() {
			if _, err := Screen(s, o); err != nil {
				t.Fatal(err)
			}
		})
		ps := avg / float64(r.Result.States)
		t.Logf("shared 2-UE sym=%v: %d states, %.0f allocs/run, %.2f allocs/state (budget %.0f)",
			sym, r.Result.States, avg, ps, maxAllocsPerState)
		return ps
	}
	plain := perState(false)
	sym := perState(true)
	if sym > maxAllocsPerState {
		t.Fatalf("symmetry screening allocates %.2f allocs/state, budget is %.0f: canonicalization left the alloc-free hot path",
			sym, maxAllocsPerState)
	}
	if sym > 2*plain {
		t.Fatalf("symmetry screening allocates %.2f allocs/state vs %.2f plain: canonicalization regressed the hot path",
			sym, plain)
	}
}

// TestParallelAllocBudget holds the layered engine's allocation cost on
// the shared-core 3-UE world at 2 workers: what a state costs beyond
// the sequential budget is its frontier entry — its key in a reused
// key arena and one path node. Measured 3.1 allocs and 406 B per state
// (linux/amd64, go1.24); holding a world copy per entry instead took
// 10.0 and 1.3 KB, and the work-stealing engine before that, which
// allocated a path node per transition, 14.6 and 3.7 KB.
func TestParallelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxBytesPerState = 2.2 * 1024
	s := MultiUEWorldShared(3, false)
	opt := s.Options
	opt.SkipLint = true
	opt.Workers = 2

	r, err := Screen(s, opt) // warm run, as in TestScreenAllocBudget
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Screen(s, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perState := func(total uint64) float64 {
		return float64(total) / runs / float64(r.Result.States)
	}
	allocs, bytes := perState(after.Mallocs-before.Mallocs), perState(after.TotalAlloc-before.TotalAlloc)
	t.Logf("shared 3-UE, 2 workers: %d states, %.2f allocs/state (budget %.0f), %.0f B/state (budget %.0f)",
		r.Result.States, allocs, maxAllocsPerState, bytes, maxBytesPerState)
	if allocs > maxAllocsPerState {
		t.Fatalf("layered screening allocates %.2f allocs/state, budget is %.0f", allocs, maxAllocsPerState)
	}
	if bytes > maxBytesPerState {
		t.Fatalf("layered screening allocates %.0f B/state, budget is %.0f: a per-transition allocation is back", bytes, maxBytesPerState)
	}
}

// TestScenarioEventsAllocFree: offering a standard world's events costs
// an expansion no allocation, untimed or under the NAS timer profile
// (WithTiming filters a static scenario once, up front). The random-walk
// "full" world samples its events and is the one exception.
func TestScenarioEventsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, name := range WorldNames() {
		if name == "full" {
			continue
		}
		for _, timed := range []bool{false, true} {
			s := StandardWorlds(false)[name]
			if timed {
				var err error
				if s, err = WithTiming(s, TimingNAS); err != nil {
					t.Fatal(err)
				}
			}
			if len(s.Scenario.Events(s.World)) == 0 {
				t.Fatalf("%s (timed %v): no events offered", name, timed)
			}
			if allocs := testing.AllocsPerRun(100, func() { s.Scenario.Events(s.World) }); allocs != 0 {
				t.Errorf("%s (timed %v): Events allocates %.1f per call", name, timed, allocs)
			}
		}
	}
}
