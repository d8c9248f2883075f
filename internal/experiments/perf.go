package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/names"
)

// PerfRun is one screening throughput measurement: a scoped world
// explored to fixpoint at a given worker count, with the allocation
// profile of the whole run.
type PerfRun struct {
	World        string  `json:"world"`
	Workers      int     `json:"workers"`
	POR          bool    `json:"por,omitempty"`
	Sym          bool    `json:"sym,omitempty"`
	States       int     `json:"states"`
	NsPerOp      int64   `json:"ns_per_op"`
	StatesPerSec float64 `json:"states_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// PerfReport is the BENCH_screen.json payload.
type PerfReport struct {
	Label string    `json:"label"`
	Runs  []PerfRun `json:"runs"`
}

func perfWorlds() []struct {
	name string
	s    core.Scoped
} {
	return []struct {
		name string
		s    core.Scoped
	}{
		{"s1", core.S1World(false)},
		{"s2", core.S2World(false)},
		{"s3", core.S3World(false, names.SwitchReselect)},
		{"s4cs", core.S4CSWorld(false)},
		{"s4ps", core.S4PSWorld(false)},
		{"s6", core.S6World(false)},
	}
}

// PerfScreen benchmarks screening of every scoped world at the given
// worker counts via testing.Benchmark, reporting states/sec and the
// allocation profile per exploration.
func PerfScreen(workerCounts []int) ([]PerfRun, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	var out []PerfRun
	for _, pw := range perfWorlds() {
		for _, workers := range workerCounts {
			s := pw.s
			opt := s.Options
			opt.Workers = workers
			states := 0
			var benchErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := core.Screen(s, opt)
					if err != nil {
						benchErr = err
						b.Fatal(err)
					}
					states = res.Result.States
				}
			})
			if benchErr != nil {
				return nil, fmt.Errorf("perf: %s workers=%d: %w", pw.name, workers, benchErr)
			}
			run := PerfRun{
				World:       pw.name,
				Workers:     workers,
				States:      states,
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if sec := r.T.Seconds(); sec > 0 {
				run.StatesPerSec = float64(states) * float64(r.N) / sec
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// PerfPOR benchmarks the partial-order reduction on the 3-UE world:
// the same screening run with check.Options.POR off and on. The state
// counts are the acceptance numbers of the cluster decomposition (the
// full product versus the sum of the per-cluster projections) and the
// rows land in BENCH_screen.json next to the throughput runs.
func PerfPOR() ([]PerfRun, error) {
	var out []PerfRun
	for _, por := range []bool{false, true} {
		s := core.MultiUEWorld(3, false)
		opt := s.Options
		opt.POR = por
		states := 0
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Screen(s, opt)
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				states = res.Result.States
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("perf: multiue por=%v: %w", por, benchErr)
		}
		run := PerfRun{
			World:       "multiue",
			Workers:     1,
			POR:         por,
			States:      states,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if sec := r.T.Seconds(); sec > 0 {
			run.StatesPerSec = float64(states) * float64(r.N) / sec
		}
		out = append(out, run)
	}
	return out, nil
}

// PerfSym benchmarks the symmetry reduction on the shared-core 4-UE
// world (core.MultiUEWorldShared — one MME/HSS context block couples
// every stack, so the effect analysis sees a single cluster and POR
// degenerates): the same screening run over the flag square {POR off/on}
// x {Symmetry off/on}. The state counts are the acceptance numbers of
// the canonicalization (the full 4-UE product versus its quotient under
// UE permutations, ~4! smaller) and the rows land in BENCH_screen.json
// under the labels "sym" and "por+sym". MaxStates is raised above the
// world default: the plain product (34^4 states) must be enumerated in
// full for the ratio to mean anything.
func PerfSym(por bool) ([]PerfRun, error) {
	var out []PerfRun
	for _, sym := range []bool{false, true} {
		s := core.MultiUEWorldShared(4, false)
		opt := s.Options
		opt.POR = por
		opt.Symmetry = sym
		opt.MaxStates = 1 << 21
		states := 0
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Screen(s, opt)
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				states = res.Result.States
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("perf: multiue-shared4 por=%v sym=%v: %w", por, sym, benchErr)
		}
		run := PerfRun{
			World:       "multiue-shared4",
			Workers:     1,
			POR:         por,
			Sym:         sym,
			States:      states,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if sec := r.T.Seconds(); sec > 0 {
			run.StatesPerSec = float64(states) * float64(r.N) / sec
		}
		out = append(out, run)
	}
	return out, nil
}

// RenderPerfJSON serializes a perf report for BENCH_screen.json.
func RenderPerfJSON(label string, runs []PerfRun) (string, error) {
	b, err := json.MarshalIndent(PerfReport{Label: label, Runs: runs}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// RenderPerfTable renders perf runs as a plain-text table.
func RenderPerfTable(runs []PerfRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %8s %14s %9s %14s %12s %12s\n",
		"world", "workers", "flags", "states", "states/sec", "allocs/op", "B/op")
	for _, r := range runs {
		var parts []string
		if r.POR {
			parts = append(parts, "por")
		}
		if r.Sym {
			parts = append(parts, "sym")
		}
		flags := strings.Join(parts, "+")
		if flags == "" {
			flags = "-"
		}
		fmt.Fprintf(&b, "%-15s %8d %14s %9d %14.0f %12d %12d\n",
			r.World, r.Workers, flags, r.States, r.StatesPerSec, r.AllocsPerOp, r.BytesPerOp)
	}
	return b.String()
}
