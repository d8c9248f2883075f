package validate

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/netemu"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden sweep fixtures")

// sweepTargets screens S1–S6 once per test binary: every sweep test
// reuses the same canonical counterexamples.
var sweepTargets = sync.OnceValues(func() ([]SweepTarget, error) {
	return SweepTargets(nil, 4, 0)
})

func mustTargets(t *testing.T) []SweepTarget {
	t.Helper()
	targets, err := sweepTargets()
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// SweepTargets stops each screen at its first counterexample; that must
// be the one an exhaustive breadth-first screen of the world lists first.
func TestSweepTargetsMatchExhaustiveScreen(t *testing.T) {
	for _, tg := range mustTargets(t) {
		opt := tg.Scoped.Options
		opt.Strategy = check.BFS
		opt.Workers = 1
		full, err := core.Screen(tg.Scoped, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Result.Violations) == 0 {
			t.Fatalf("%s: exhaustive screen found no violation", tg.Scoped.Finding)
		}
		if !reflect.DeepEqual(tg.Violation, full.Result.Violations[0]) {
			t.Errorf("%s: sweep target %s (%d steps) is not the exhaustive screen's first counterexample %s (%d steps)",
				tg.Scoped.Finding, tg.Violation.Property, len(tg.Violation.Path),
				full.Result.Violations[0].Property, len(full.Result.Violations[0].Path))
		}
	}
}

// The determinism contract: the same grid and seeds produce
// byte-identical JSON whether the runs execute serially or dealt
// across eight workers.
func TestSweepWorkerDeterminism(t *testing.T) {
	targets := mustTargets(t)
	run := func(workers int) []byte {
		res, err := Sweep(SweepConfig{
			Targets:   targets,
			LossRates: []float64{0, 0.2},
			Seeds:     3,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if string(serial) != string(parallel) {
		t.Fatalf("sweep output depends on worker count:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
	}
}

// Every trial terminates in exactly one of the three accounted ways,
// and the aggregates are internally consistent.
func TestSweepAccounting(t *testing.T) {
	targets := mustTargets(t)
	res, err := Sweep(SweepConfig{
		Targets:   targets,
		LossRates: []float64{0, 0.4},
		Seeds:     4,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(targets) * 2
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	for _, c := range res.Cells {
		if c.Runs != 4 {
			t.Fatalf("%s@%.1f: runs = %d, want 4", c.Finding, c.Loss, c.Runs)
		}
		if c.Reproduced+c.Aborted+c.Satisfied != c.Runs {
			t.Fatalf("%s@%.1f: buckets %d+%d+%d != runs %d",
				c.Finding, c.Loss, c.Reproduced, c.Aborted, c.Satisfied, c.Runs)
		}
		const eps = 1e-9 // Wilson bounds at p∈{0,1} round within a ulp
		if c.Rate < 0 || c.Rate > 1 || c.CILow > c.Rate+eps || c.CIHigh < c.Rate-eps {
			t.Fatalf("%s@%.1f: rate %.3f outside CI [%.3f, %.3f]",
				c.Finding, c.Loss, c.Rate, c.CILow, c.CIHigh)
		}
		if len(c.TraceHash) != 16 {
			t.Fatalf("%s@%.1f: trace hash %q", c.Finding, c.Loss, c.TraceHash)
		}
	}
	// The loss-free S1 cell replays a validated counterexample: it must
	// reproduce in every trial (the baseline TestReplayS1 asserts one).
	found := false
	for _, c := range res.Cells {
		if c.Finding == "S1" && c.Loss == 0 {
			found = true
			if c.Reproduced != c.Runs {
				t.Fatalf("S1 at zero loss reproduced %d/%d", c.Reproduced, c.Runs)
			}
		}
	}
	if !found {
		t.Fatal("no S1 zero-loss cell")
	}
}

// With the §8 fixes enabled the sweep must come back clean: no cell
// reproduces its symptom, at any loss rate — the suppression the paper
// argues for, now checked under operational loss rather than only in
// the loss-free validation runs.
func TestSweepFixesSuppressUnderLoss(t *testing.T) {
	targets := mustTargets(t)
	res, err := Sweep(SweepConfig{
		Targets:   targets,
		LossRates: []float64{0, 0.3},
		Seeds:     3,
		Workers:   4,
		Fixes:     netemu.AllFixes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Reproduced != 0 {
			t.Errorf("%s (%s) at loss %.1f: reproduced %d/%d despite all fixes",
				c.Finding, c.Property, c.Loss, c.Reproduced, c.Runs)
		}
	}
}

// A cancelled sweep reports itself truncated instead of presenting
// partial tallies as complete.
func TestSweepCancellation(t *testing.T) {
	targets := mustTargets(t)
	cancel := &check.Cancel{}
	cancel.Cancel()
	res, err := Sweep(SweepConfig{
		Targets:   targets[:1],
		LossRates: []float64{0},
		Seeds:     2,
		Cancel:    cancel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("cancelled sweep not marked truncated")
	}
	for _, c := range res.Cells {
		if c.Runs != 0 {
			t.Fatalf("pre-cancelled sweep still ran %d trials", c.Runs)
		}
	}
}

// Unknown findings are an error, not an empty sweep.
func TestSweepUnknownFinding(t *testing.T) {
	if _, err := Sweep(SweepConfig{Findings: []core.FindingID{"S9"}}); err == nil {
		t.Fatal("unknown finding accepted")
	}
}

// TestSweepGolden pins the S1–S6 reproduction tallies at loss 0, 0.1
// and 0.3 — the repo's Figure 9/10-style summary table. Any drift in
// the screening order, the replay ladder, the retransmission timers or
// the loss injection shows up as a golden diff. Refresh intentionally
// with:
//
//	go test ./internal/validate -run TestSweepGolden -update
func TestSweepGolden(t *testing.T) {
	targets := mustTargets(t)
	cases := []struct {
		name string
		cfg  SweepConfig
	}{
		{"defective", SweepConfig{}},
		{"fixed", SweepConfig{Fixes: netemu.AllFixes()}},
		{"noreliab", SweepConfig{NoReliability: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Targets = targets
			cfg.LossRates = []float64{0, 0.1, 0.3}
			cfg.Seeds = 4
			cfg.Workers = 4
			res, err := Sweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := res.CSV()

			path := filepath.Join("testdata", "golden", "sweep_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
