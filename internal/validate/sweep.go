package validate

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/netemu"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/stats"
	"cnetverifier/internal/trace"
)

// This file grows the one-counterexample Replay into a campaign
// engine: validate.Sweep runs a (finding × loss-rate × seed) grid of
// emulator reproductions concurrently, with the worker discipline of
// internal/check/parallel.go (a shared atomic job cursor, results slot
// -indexed so aggregation order never depends on scheduling), and
// aggregates per-cell reproduction rates with Wilson confidence
// intervals. It is the §3.3 validation methodology (Figures 9–10:
// reproduce each counterexample under operational conditions, many
// trials per setting) made runnable as one command — with the
// reliable-delivery layer of internal/netemu keeping every lossy run
// terminating instead of wedging.

// SweepTarget is one screened counterexample a sweep reproduces.
type SweepTarget struct {
	// Scoped is the screening world (defective configuration).
	Scoped core.Scoped
	// Violation is the canonical (shortest, BFS) counterexample.
	Violation check.Violation
}

// SweepConfig configures a loss-sweep validation campaign.
type SweepConfig struct {
	// Findings restricts the grid to a subset of S1–S6; nil sweeps
	// every scoped screening world.
	Findings []core.FindingID
	// LossRates is the air-interface loss grid (default 0–0.5 in steps
	// of 0.1). Each rate applies independently to both link directions.
	LossRates []float64
	// Seeds is the number of trials per (finding, loss) cell
	// (default 8); trial i runs with seed Seed+i.
	Seeds int
	// Workers bounds the concurrently executing emulator runs
	// (default 1). Any worker count produces the identical result:
	// runs are dealt from an atomic cursor and written to their own
	// slot, exactly like the parallel checker's walk splitting.
	Workers int
	// Profile is the emulated operator (default OP-II).
	Profile *netemu.OperatorProfile
	// Fixes optionally enables the §8 solutions — a fixes-enabled sweep
	// must suppress reproduction even under loss.
	Fixes netemu.FixSet
	// NoReliability disables the retransmission layer: lossy runs may
	// then stall short of their property instead of degrading, but
	// still terminate (a dropped frame ends its event chain).
	NoReliability bool
	// Reliability overrides the profile's NAS retransmission timers
	// when non-zero.
	Reliability netemu.ReliabilityConfig
	// Seed is the base trial seed (default 1).
	Seed int64
	// Targets optionally supplies pre-screened counterexamples,
	// skipping the screening phase (tests reuse one screening pass
	// across several sweeps).
	Targets []SweepTarget
	// StateBudget, when positive, caps the distinct states of the
	// screening phase with one shared token pool (check.Budget).
	StateBudget int
	// Cancel cooperatively aborts the sweep; the result is then marked
	// Truncated and unprocessed runs are omitted from the tallies.
	Cancel *check.Cancel
}

func (c SweepConfig) sweepDefaults() SweepConfig {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.Seeds == 0 {
		c.Seeds = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Profile == nil {
		p := netemu.OPII()
		c.Profile = &p
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SweepCell aggregates the trials of one (finding, loss-rate) grid
// point. Every trial terminates in exactly one of three ways —
// reproduction of the paper's symptom, a traced retry-exhaustion
// abort, or property satisfaction — so Reproduced+Aborted+Satisfied
// always equals Runs.
type SweepCell struct {
	Finding  string  `json:"finding"`
	Property string  `json:"property"`
	Loss     float64 `json:"loss"`
	Runs     int     `json:"runs"`
	// Reproduced counts trials where the emulator exhibited the
	// screened symptom.
	Reproduced int `json:"reproduced"`
	// Aborted counts non-reproducing trials that terminated through at
	// least one retry-exhaustion abort of the reliable-delivery layer.
	Aborted int `json:"aborted"`
	// Satisfied counts trials that ended with the property holding and
	// no abort.
	Satisfied int `json:"satisfied"`
	// Rate is Reproduced/Runs; CILow/CIHigh bound it with a 95% Wilson
	// score interval.
	Rate   float64 `json:"rate"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
	// TraceHash is an FNV-64a digest over the rendered trace lines of
	// every trial in seed order — byte-identical traces across worker
	// counts is part of the determinism contract.
	TraceHash string `json:"trace_hash"`
}

// SweepResult is the full campaign outcome, JSON/CSV-renderable.
type SweepResult struct {
	Profile     string        `json:"profile"`
	Reliability bool          `json:"reliability"`
	Fixes       netemu.FixSet `json:"fixes"`
	Seeds       int           `json:"seeds"`
	Seed        int64         `json:"seed"`
	Truncated   bool          `json:"truncated,omitempty"`
	Cells       []SweepCell   `json:"cells"`
}

// SweepTargets screens the scoped worlds for the given findings (nil =
// all) breadth-first — the shortest, canonical counterexamples — and
// returns one target per world. Only a world's first counterexample is
// swept, so each screen runs on one worker and stops at it: one-worker
// BFS reports violations in discovery order, which makes that the same
// counterexample an exhaustive screen lists first, found without
// holding the rest of the state space. workers > 1 screens worlds
// concurrently (core.ScreenWorlds) with the same targets.
func SweepTargets(findings []core.FindingID, workers, stateBudget int) ([]SweepTarget, error) {
	want := func(id core.FindingID) bool {
		if len(findings) == 0 {
			return true
		}
		for _, f := range findings {
			if f == id {
				return true
			}
		}
		return false
	}
	var scoped []core.Scoped
	for _, s := range core.ScopedModels() {
		if want(s.Finding) {
			scoped = append(scoped, s)
		}
	}
	if len(scoped) == 0 {
		return nil, fmt.Errorf("validate: no scoped world matches findings %v", findings)
	}
	perWorld := func(s core.Scoped) check.Options {
		opt := s.Options
		opt.Strategy = check.BFS
		opt.Workers = 1
		opt.StopAtFirst = true
		return opt
	}
	rs, err := core.ScreenWorlds(scoped, perWorld,
		core.CampaignOptions{Parallel: workers, StateBudget: stateBudget})
	if err != nil {
		return nil, err
	}
	targets := make([]SweepTarget, len(rs))
	for i, r := range rs {
		if len(r.Result.Violations) == 0 {
			return nil, fmt.Errorf("validate: %s produced no counterexample to sweep", scoped[i].Finding)
		}
		targets[i] = SweepTarget{Scoped: scoped[i], Violation: r.Result.Violations[0]}
	}
	return targets, nil
}

// sweepRun is the outcome of one trial.
type sweepRun struct {
	done       bool
	reproduced bool
	aborted    bool
	traceHash  uint64
}

// Sweep runs the loss-sweep validation campaign. The result is a pure
// function of the configuration: the same grid and seeds produce
// byte-identical JSON at any worker count.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.sweepDefaults()
	targets := cfg.Targets
	if targets == nil {
		var err error
		targets, err = SweepTargets(cfg.Findings, cfg.Workers, cfg.StateBudget)
		if err != nil {
			return nil, err
		}
	}

	type job struct{ ti, li, si int }
	jobs := make([]job, 0, len(targets)*len(cfg.LossRates)*cfg.Seeds)
	for ti := range targets {
		for li := range cfg.LossRates {
			for si := 0; si < cfg.Seeds; si++ {
				jobs = append(jobs, job{ti, li, si})
			}
		}
	}

	runs := make([]sweepRun, len(jobs))
	errs := make([]error, len(jobs))
	var cursor atomic.Int64
	workers := cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !cfg.Cancel.Cancelled() {
				i := int(cursor.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				runs[i], errs[i] = sweepOne(targets[j.ti], cfg, cfg.LossRates[j.li], j.si)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &SweepResult{
		Profile:     cfg.Profile.Name,
		Reliability: !cfg.NoReliability,
		Fixes:       cfg.Fixes,
		Seeds:       cfg.Seeds,
		Seed:        cfg.Seed,
		Truncated:   cfg.Cancel.Cancelled(),
	}
	for ti, t := range targets {
		for li, loss := range cfg.LossRates {
			cell := SweepCell{
				Finding:  string(t.Scoped.Finding),
				Property: t.Violation.Property,
				Loss:     loss,
			}
			h := fnv.New64a()
			for si := 0; si < cfg.Seeds; si++ {
				r := runs[(ti*len(cfg.LossRates)+li)*cfg.Seeds+si]
				if !r.done {
					continue // cancelled before this trial ran
				}
				cell.Runs++
				switch {
				case r.reproduced:
					cell.Reproduced++
				case r.aborted:
					cell.Aborted++
				default:
					cell.Satisfied++
				}
				var b [8]byte
				for k := 0; k < 8; k++ {
					b[k] = byte(r.traceHash >> (8 * k))
				}
				h.Write(b[:])
			}
			if cell.Runs > 0 {
				cell.Rate = float64(cell.Reproduced) / float64(cell.Runs)
			}
			cell.CILow, cell.CIHigh = stats.Wilson(cell.Reproduced, cell.Runs, stats.Z95)
			cell.TraceHash = fmt.Sprintf("%016x", h.Sum64())
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// sweepSeed derives the loss-injection seed of one trial from
// everything that identifies it, so a trial's randomness is a pure
// function of the grid point — never of scheduling.
func sweepSeed(t SweepTarget, loss float64, seedIdx int, base int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%v|%d|%d", t.Scoped.Finding, t.Violation.Property, loss, seedIdx, base)
	return int64(h.Sum64() & math.MaxInt64)
}

// sweepOne runs one trial: the counterexample's replay ladder over a
// stack with the retransmission layer and random loss on both links.
func sweepOne(t SweepTarget, cfg SweepConfig, loss float64, seedIdx int) (sweepRun, error) {
	base := sweepSeed(t, loss, seedIdx, cfg.Seed)
	rcfg := Config{
		Profile:        cfg.Profile,
		Fixes:          cfg.Fixes,
		InitialGlobals: t.Scoped.World.GlobalsMap(),
		Seed:           cfg.Seed + int64(seedIdx),
		prepare: func(w *netemu.World) {
			if !cfg.NoReliability {
				rc := cfg.Reliability
				if rc == (netemu.ReliabilityConfig{}) {
					rc = cfg.Profile.NASRetrans
				}
				w.SetReliability(rc)
			}
			// The §8 reliable-transfer shim is modeled as a loss-free,
			// in-order NAS channel (see the Fixes.ReliableSignaling
			// handling in Replay): the air loss it absorbs is not
			// re-injected above it. The world's own retransmission
			// layer recovers loss but not ordering — a later NAS frame
			// can overtake an earlier one still in retransmission —
			// so raw loss under the shim would fabricate reorderings
			// the in-sequence shim rules out.
			if loss > 0 && !cfg.Fixes.ReliableSignaling {
				w.Uplink.Dropper = radio.NewDropper(loss, base)
				w.Downlink.Dropper = radio.NewDropper(loss, base+1)
			}
		},
	}
	out, err := Replay(t.Scoped.Finding, t.Violation, rcfg)
	if err != nil {
		return sweepRun{}, err
	}
	r := sweepRun{done: true, reproduced: out.Reproduced}
	h := fnv.New64a()
	var line []byte
	for _, rec := range out.Trace {
		if rec.Type == trace.TypeAbort {
			r.aborted = true
		}
		line = append(rec.AppendTo(line[:0]), '\n')
		h.Write(line)
	}
	r.traceHash = h.Sum64()
	return r, nil
}

// JSON renders the result as deterministic, indented JSON.
func (r *SweepResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CSV renders the cells as a CSV table (header + one row per cell).
// The header is derived from SweepCell's json tags (CSVHeader), so the
// two export formats cannot drift apart; DecodeCSV reads it back.
func (r *SweepResult) CSV() string {
	var b strings.Builder
	b.WriteString(CSVHeader())
	b.WriteByte('\n')
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%s,%s,%g,%d,%d,%d,%d,%.4f,%.4f,%.4f,%s\n",
			c.Finding, c.Property, c.Loss, c.Runs, c.Reproduced, c.Aborted,
			c.Satisfied, c.Rate, c.CILow, c.CIHigh, c.TraceHash)
	}
	return b.String()
}

// Table renders a human-readable summary.
func (r *SweepResult) Table() string {
	var b strings.Builder
	mode := "reliable delivery on"
	if !r.Reliability {
		mode = "reliable delivery OFF"
	}
	fmt.Fprintf(&b, "loss sweep: %s, %s, %d seeds (base %d)\n", r.Profile, mode, r.Seeds, r.Seed)
	fmt.Fprintf(&b, "%-4s %-17s %5s  %11s %7s %9s  %-6s %s\n",
		"id", "property", "loss", "reproduced", "aborts", "satisfied", "rate", "95% CI")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-4s %-17s %5.2f  %7d/%-3d %7d %9d  %5.0f%%  [%.2f, %.2f]\n",
			c.Finding, c.Property, c.Loss, c.Reproduced, c.Runs, c.Aborted,
			c.Satisfied, c.Rate*100, c.CILow, c.CIHigh)
	}
	if r.Truncated {
		b.WriteString("(truncated by cancellation; tallies cover completed trials only)\n")
	}
	return b.String()
}
