package experiments

import (
	"fmt"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
)

// This file measures the memory-lean visited table (internal/check
// vtable.go): the lock-free fingerprint store that replaced the sharded
// mutex map, and its hash-compaction mode. Two BENCH_screen.json labels
// come out of it:
//
//   - "vlean": screening throughput and allocation profile of the
//     scoped worlds at 1/4/8 workers, plus the shared-core multi-UE
//     world in exact versus compact mode. Compare allocs/op and B/op
//     against the pre-table "parallel"/"sym" labels for the memory
//     acceptance numbers (≥5× bytes/state, ≥2× allocs/state).
//   - "vlean+por+sym": the completion demonstration — a 4-UE
//     shared-core screen under POR+Symmetry where exact mode truncates
//     at a state cap sized to a fixed memory budget while compact mode,
//     whose per-state footprint is ~8 bytes of table instead of table
//     plus arena, finishes the fixpoint inside the same bytes.

// vleanBench runs one screening configuration under testing.Benchmark
// and fills the common PerfRun fields.
func vleanBench(world string, s core.Scoped, opt check.Options) (PerfRun, error) {
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	states := 0
	truncated := false
	omission := 0.0
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
			truncated = res.Result.Truncated
			omission = res.Result.Omission
		}
	})
	if benchErr != nil {
		return PerfRun{}, fmt.Errorf("vlean: %s: %w", world, benchErr)
	}
	run := PerfRun{
		World:       world,
		Workers:     opt.Workers,
		POR:         opt.POR,
		Sym:         opt.Symmetry,
		Compact:     opt.Compact,
		MaxStates:   opt.MaxStates,
		Truncated:   truncated,
		Omission:    omission,
		States:      states,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if sec := r.T.Seconds(); sec > 0 {
		run.StatesPerSec = float64(states) * float64(r.N) / sec
	}
	return run, nil
}

// PerfVlean benchmarks the memory-lean visited table: every scoped
// world at 1/4/8 workers (exact mode), then the shared-core 4-UE world
// under symmetry — the same configuration as the checked-in "sym"
// label, so the B/op and allocs/op columns compare row-for-row — in
// exact versus compact mode at 1 and 8 workers. Label: "vlean".
func PerfVlean() ([]PerfRun, error) {
	var out []PerfRun
	for _, pw := range perfWorlds() {
		for _, workers := range []int{1, 4, 8} {
			opt := pw.s.Options
			opt.Workers = workers
			run, err := vleanBench(pw.name, pw.s, opt)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	for _, compact := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			s := core.MultiUEWorldShared(4, false)
			opt := s.Options
			opt.Symmetry = true
			opt.Compact = compact
			opt.Workers = workers
			opt.MaxStates = 1 << 21
			run, err := vleanBench("multiue-shared4", s, opt)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// PerfVleanPorSym is the compaction completion demonstration on the
// 4-UE shared-core world under POR+Symmetry. Both legs get the same
// visited-set memory budget as sized when exact mode stored full
// encodings: hundreds of bytes per state on slots, refs and the
// encoding arena where compact mode spends ~8 B/state of slots, so the
// same bytes bought compact mode ~30× the state cap. (Exact mode now
// stores collapsed keys, ~37 B/state on this world; the caps are kept
// so the label stays comparable across runs.) The
// exact leg caps out mid-search — its state count pins at exactly
// MaxStates, an incomplete frontier. The compact leg exhausts the
// frontier well below its cap: it reaches the depth-bounded
// symmetry-reduced fixpoint inside the same bytes, and reports the
// omission bound that prices the shortcut. (Both rows carry the
// Truncated flag: the world's depth bound itself truncates paths, in
// either mode; the cap-versus-fixpoint distinction is states==cap
// versus states<cap.) Label: "vlean+por+sym".
func PerfVleanPorSym() ([]PerfRun, error) {
	const (
		exactCap   = 20_000
		compactCap = 600_000 // same visited-set bytes as exactCap in exact mode
	)
	var out []PerfRun
	for _, leg := range []struct {
		compact bool
		cap     int
	}{
		{false, exactCap},
		{true, compactCap},
	} {
		s := core.MultiUEWorldShared(4, false)
		opt := s.Options
		opt.POR = true
		opt.Symmetry = true
		opt.Compact = leg.compact
		opt.MaxStates = leg.cap
		run, err := vleanBench("multiue-shared4", s, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}
