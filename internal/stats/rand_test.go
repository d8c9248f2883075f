package stats

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth draws n values from got and want through every rand.Rand
// method the repository uses, failing on the first divergence.
func drawBoth(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		var g, w any
		switch k % 5 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			bound := k + 1 // odd, even and power-of-two bounds in turn
			g, w = got.Intn(bound), want.Intn(bound)
		case 3:
			g, w = got.Float64(), want.Float64()
		case 4:
			bound := int64(1)<<40 + int64(k) // Int63n's 64-bit branch
			g, w = got.Int63n(bound), want.Int63n(bound)
		}
		if g != w {
			t.Fatalf("seed %d, draw %d: got %v, want %v", seed, k, g, w)
		}
	}
}

// TestNewRandStream pins stream identity with math/rand's own source:
// for the seeding edge cases (zero, the int32max multiples the seed
// reduction folds to zero, the int64 extremes) and 300 random seeds,
// 2×607+ draws through every method, then a reseed mid-stream and as
// many draws again.
func TestNewRandStream(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max - 1, int32max + 1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	pick := rand.New(rand.NewSource(20140817))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const draws = 2*rngLen + 100
	for i, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		drawBoth(t, seed, got, want, draws)
		reseed := seeds[(i+1)%len(seeds)]
		got.Seed(reseed)
		want.Seed(reseed)
		drawBoth(t, reseed, got, want, draws)
	}
}

// TestNewRandReseedAllocFree: reseeding and drawing allocate nothing, so
// a worker can hold one generator for its lifetime.
func TestNewRandReseedAllocFree(t *testing.T) {
	r := NewRand(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		_ = r.Intn(12)
		_ = r.Int63()
		_ = r.Float64()
	})
	if allocs != 0 {
		t.Errorf("reseed + draw allocated %.1f times per run", allocs)
	}
}

// BenchmarkSeed compares seeding plus three draws — the fuzzer's
// per-candidate pattern — on math/rand's source and on NewRand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand-new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			_, _, _ = r.Intn(12), r.Int63(), r.Float64()
		}
	})
	b.Run("stats-reseed", func(b *testing.B) {
		b.ReportAllocs()
		r := NewRand(0)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			_, _, _ = r.Intn(12), r.Int63(), r.Float64()
		}
	})
}
