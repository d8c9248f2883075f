// Screening hot-path benchmarks: raw checker throughput on each scoped
// S1–S6 world, sequential and with the parallel frontier engine. These
// are the numbers BENCH_screen.json and the EXPERIMENTS.md perf table
// track (states/sec, B/op, allocs/op) — run with:
//
//	go test -bench=Screen -benchmem
package cnetverifier_test

import (
	"fmt"
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/names"
)

// screenWorlds are the scoped worlds benchmarked by BenchmarkScreen*,
// mirroring the golden-trace set.
func screenWorlds() []struct {
	name string
	s    core.Scoped
} {
	return []struct {
		name string
		s    core.Scoped
	}{
		{"S1", core.S1World(false)},
		{"S2", core.S2World(false)},
		{"S3", core.S3World(false, names.SwitchReselect)},
		{"S4CS", core.S4CSWorld(false)},
		{"S4PS", core.S4PSWorld(false)},
		{"S6", core.S6World(false)},
	}
}

func benchScreen(b *testing.B, s core.Scoped, workers int) {
	opt := s.Options
	opt.Workers = workers
	b.ReportAllocs()
	states := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Screen(s, opt)
		if err != nil {
			b.Fatal(err)
		}
		states = r.Result.States
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(states)*float64(b.N)/sec, "states/s")
	}
}

// BenchmarkScreenWorlds measures sequential screening of every scoped
// world — the per-transition cost of the clone/apply/encode/hash loop.
func BenchmarkScreenWorlds(b *testing.B) {
	for _, pw := range screenWorlds() {
		b.Run(pw.name, func(b *testing.B) { benchScreen(b, pw.s, 1) })
	}
}

// BenchmarkScreenMultiUE measures the partial-order reduction on the
// 3-UE world: the same screening with the cluster decomposition off
// (full interleaving product) and on (sum of the per-cluster
// projections). The states/s metric is incomparable between the two —
// the point is the absolute time and the states count in the logs.
func BenchmarkScreenMultiUE(b *testing.B) {
	for _, por := range []bool{false, true} {
		b.Run(fmt.Sprintf("por=%v", por), func(b *testing.B) {
			s := core.MultiUEWorld(3, false)
			opt := s.Options
			opt.POR = por
			b.ReportAllocs()
			states := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := core.Screen(s, opt)
				if err != nil {
					b.Fatal(err)
				}
				states = r.Result.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkScreenMultiUEShared measures symmetry reduction on the
// shared-core 3-UE world, where one MME/HSS context block couples every
// stack into a single effect cluster and POR degenerates: the same
// screening over the {POR off/on} x {Symmetry off/on} square. Like the
// POR benchmark, the states metric in the logs is the point — the
// canonical quotient divides the state count by close to 3!.
func BenchmarkScreenMultiUEShared(b *testing.B) {
	for _, por := range []bool{false, true} {
		for _, sym := range []bool{false, true} {
			b.Run(fmt.Sprintf("por=%v/sym=%v", por, sym), func(b *testing.B) {
				s := core.MultiUEWorldShared(3, false)
				opt := s.Options
				opt.POR = por
				opt.Symmetry = sym
				b.ReportAllocs()
				states := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := core.Screen(s, opt)
					if err != nil {
						b.Fatal(err)
					}
					states = r.Result.States
				}
				b.ReportMetric(float64(states), "states")
			})
		}
	}
}

// BenchmarkScreenWorkers measures the widest scoped world (S6) as the
// worker count grows: sequential DFS at 1, the layered breadth-first
// engine above.
func BenchmarkScreenWorkers(b *testing.B) {
	s := core.S6World(false)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchScreen(b, s, workers)
		})
	}
}
