// Package bench holds the benchmark harness: one testing.B benchmark
// per table and figure in the paper's evaluation. Each benchmark
// regenerates its experiment through internal/experiments, reports the
// headline quantities via b.ReportMetric, and (once, under -v) echoes
// the full rows in the paper's layout.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package cnetverifier_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/experiments"
	"cnetverifier/internal/fixes"
	"cnetverifier/internal/names"
	"cnetverifier/internal/netemu"
	"cnetverifier/internal/types"
	"cnetverifier/internal/userstudy"
	"cnetverifier/internal/validate"
)

// logOnce prints an experiment's rendered rows a single time per
// benchmark, so repeated b.N iterations do not flood the output.
var logOnce sync.Map

func echo(b *testing.B, key, s string) {
	b.Helper()
	if _, dup := logOnce.LoadOrStore(key, true); !dup {
		b.Log("\n" + s)
	}
}

// BenchmarkTable1_FindingSummary screens every scoped world (defective
// and fixed) — the full phase-1 pipeline behind Table 1.
func BenchmarkTable1_FindingSummary(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	echo(b, "table1", out)
}

// BenchmarkTable3_PDPDeactCauses validates every Table 3 deactivation
// cause against the emulated stack.
func BenchmarkTable3_PDPDeactCauses(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(1)
	}
	reproduced := 0
	for _, r := range rows {
		if r.ReproducesS1 {
			reproduced++
		}
	}
	b.ReportMetric(float64(reproduced), "causes_reproducing_S1")
	echo(b, "table3", experiments.RenderTable3(rows))
}

// BenchmarkTable4_UpdateTriggers verifies the six update-triggering
// scenarios.
func BenchmarkTable4_UpdateTriggers(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(1)
	}
	echo(b, "table4", experiments.RenderTable4(rows))
}

// BenchmarkTable5_UserStudy simulates the two-week user study.
func BenchmarkTable5_UserStudy(b *testing.B) {
	var res userstudy.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table5(15)
	}
	b.ReportMetric(res.Occurrences[2].Rate()*100, "S3_pct")
	b.ReportMetric(res.Occurrences[4].Rate()*100, "S5_pct")
	echo(b, "table5", res.Table())
}

// BenchmarkTable6_StuckIn3G measures the post-CSFB 3G dwell per
// operator.
func BenchmarkTable6_StuckIn3G(b *testing.B) {
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table6StuckIn3G(100, 1)
	}
	for _, r := range rows {
		switch r.Operator {
		case "OP-I":
			b.ReportMetric(r.Summary.Median, "OPI_median_s")
		case "OP-II":
			b.ReportMetric(r.Summary.Median, "OPII_median_s")
		}
	}
	echo(b, "table6", experiments.RenderTable6(rows))
}

// BenchmarkFigure4_RecoveryTime measures the S1 detach-recovery time.
func BenchmarkFigure4_RecoveryTime(b *testing.B) {
	var rows []experiments.Figure4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure4RecoveryTime(60, 1)
	}
	for _, r := range rows {
		if r.Operator == "OP-II" {
			b.ReportMetric(r.Summary.Max, "OPII_max_s")
		}
	}
	echo(b, "fig4", experiments.RenderFigure4(rows))
}

// BenchmarkFigure7_CallSetupRoute drives the Route-1 call series.
func BenchmarkFigure7_CallSetupRoute(b *testing.B) {
	var pts []experiments.Figure7Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure7CallSetup(netemu.OPI(), 60, 3)
	}
	b.ReportMetric(float64(len(pts)), "calls")
	echo(b, "fig7", experiments.RenderFigure7(pts))
}

// BenchmarkFigure8_UpdateCDF samples the four update-duration CDFs.
func BenchmarkFigure8_UpdateCDF(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderFigure8(experiments.Figure8CDFs(400, 1))
	}
	echo(b, "fig8", out)
}

// BenchmarkFigure9_RateDuringCall measures the with/without-call rates
// for both operators and directions.
func BenchmarkFigure9_RateDuringCall(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		for _, p := range netemu.Operators() {
			for _, uplink := range []bool{false, true} {
				buckets := experiments.Figure9Rates(p, uplink, 40, 7)
				d := experiments.Figure9Drop(buckets)
				if p.Name == "OP-II" && uplink {
					drop = d
				}
			}
		}
	}
	b.ReportMetric(drop*100, "OPII_UL_drop_pct")
	echo(b, "fig9", experiments.RenderFigure9(netemu.OPII(), true,
		experiments.Figure9Rates(netemu.OPII(), true, 40, 7)))
}

// BenchmarkFigure10_ModulationTrace regenerates the example trace.
func BenchmarkFigure10_ModulationTrace(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderFigure10(experiments.Figure10Trace(1))
	}
	echo(b, "fig10", out)
}

// BenchmarkFigure12_DetachVsDrop runs the §9.1 drop-rate sweep with and
// without the reliable shim.
func BenchmarkFigure12_DetachVsDrop(b *testing.B) {
	rates := []float64{0, 0.05, 0.10}
	var without, with []experiments.Figure12LeftPoint
	for i := 0; i < b.N; i++ {
		without = experiments.Figure12DetachVsDrop(rates, 40, false, 1)
		with = experiments.Figure12DetachVsDrop(rates, 40, true, 1)
	}
	b.ReportMetric(float64(without[len(without)-1].Detaches), "detaches_at_10pct")
	b.ReportMetric(float64(with[len(with)-1].Detaches), "detaches_fixed")
	echo(b, "fig12l", experiments.RenderFigure12Left(without, with))
}

// BenchmarkFigure12_CallDelayVsUpdate runs the §9.1 HOL experiment.
func BenchmarkFigure12_CallDelayVsUpdate(b *testing.B) {
	times := []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second}
	var without, with []experiments.Figure12RightPoint
	for i := 0; i < b.N; i++ {
		without = experiments.Figure12CallDelay(times, false)
		with = experiments.Figure12CallDelay(times, true)
	}
	b.ReportMetric(without[len(without)-1].CallDelay.Seconds(), "delay_at_6s")
	b.ReportMetric(with[len(with)-1].CallDelay.Seconds(), "delay_fixed")
	echo(b, "fig12r", experiments.RenderFigure12Right(without, with))
}

// BenchmarkFigure13_DecoupledRates runs the §9.2 channel-plan
// comparison.
func BenchmarkFigure13_DecoupledRates(b *testing.B) {
	var rows []experiments.Figure13Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure13Rates()
	}
	echo(b, "fig13", experiments.RenderFigure13(rows))
}

// BenchmarkSection93_CrossSystem runs the §9.3 remedies.
func BenchmarkSection93_CrossSystem(b *testing.B) {
	var res experiments.Section93Result
	for i := 0; i < b.N; i++ {
		res = experiments.Section93CrossSystem(20, 1)
	}
	b.ReportMetric(res.FixedSwitch.Median, "fixed_median_s")
	b.ReportMetric(res.BrokenSwitch.Median, "broken_median_s")
	echo(b, "sec93", experiments.RenderSection93(res))
}

// --- Ablation and core-engine benchmarks ---

// BenchmarkChecker_S1DFS measures raw checker throughput on the S1
// world (DFS with dedup).
func BenchmarkChecker_S1DFS(b *testing.B) {
	w := core.S1World(false)
	var states int
	for i := 0; i < b.N; i++ {
		r, err := core.Screen(w, check.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = r.Result.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkChecker_S2Strategies compares DFS, BFS and random walk on
// the lossy S2 world — the ablation for the exploration-strategy
// design choice.
func BenchmarkChecker_S2Strategies(b *testing.B) {
	for _, s := range []struct {
		name string
		st   check.Strategy
	}{{"DFS", check.DFS}, {"BFS", check.BFS}, {"Walk", check.RandomWalk}} {
		b.Run(s.name, func(b *testing.B) {
			w := core.S2World(false)
			opt := w.Options
			opt.Strategy = s.st
			opt.Walks = 200
			for i := 0; i < b.N; i++ {
				if _, err := core.Screen(w, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmulator_S1Flow measures the end-to-end emulated S1 flow.
func BenchmarkEmulator_S1Flow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := netemu.NewWorld(int64(i) + 1)
		netemu.StandardStack(w, netemu.OPII(), netemu.FixSet{})
		w.InjectAt(0, names.UEEMM, powerOn())
		w.InjectAt(time.Second, names.UEGMM, switchCmd())
		w.InjectAt(2*time.Second, names.UESM, deactPDP())
		w.InjectAt(3*time.Second, names.UEEMM, reselect())
		w.Run()
	}
}

// BenchmarkAblation_S3SwitchOptions screens the S3 world under each of
// the three inter-system switching options of Figure 6a — the design
// choice DESIGN.md calls out: only "inter-system cell reselection"
// (OP-II) deadlocks; redirect (OP-I) and handover stay clean.
func BenchmarkAblation_S3SwitchOptions(b *testing.B) {
	options := []struct {
		name string
		opt  int
	}{
		{"Redirect", names.SwitchRedirect},
		{"Handover", names.SwitchHandover},
		{"Reselect", names.SwitchReselect},
	}
	for _, o := range options {
		b.Run(o.name, func(b *testing.B) {
			var violated bool
			for i := 0; i < b.N; i++ {
				r, err := core.Screen(core.S3World(false, o.opt), check.Options{})
				if err != nil {
					b.Fatal(err)
				}
				violated = r.Violated()
			}
			v := 0.0
			if violated {
				v = 1
			}
			b.ReportMetric(v, "MM_OK_violated")
			wantViolated := o.opt == names.SwitchReselect
			if violated != wantViolated {
				b.Fatalf("option %s: violated=%v, want %v", o.name, violated, wantViolated)
			}
		})
	}
}

// BenchmarkAblation_ShimRTO sweeps the reliable shim's retransmission
// timeout over a 20%-lossy link: shorter RTOs recover faster but
// retransmit more — the §8 shim's main tuning knob.
func BenchmarkAblation_ShimRTO(b *testing.B) {
	for _, rto := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 800 * time.Millisecond} {
		b.Run(rto.String(), func(b *testing.B) {
			var retx int
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sim := netemu.NewSim(int64(i) + 1)
				drop := radioDropper(0.2, int64(i)+100)
				delivered := 0
				pair := fixes.NewReliablePair(sim, fixes.ReliableConfig{RTO: rto, MaxRetries: 30},
					20*time.Millisecond, 0, drop, drop,
					nil, func(types.Message) { delivered++ })
				for k := 0; k < 50; k++ {
					pair.A.Send(types.Message{Kind: types.MsgAttachRequest})
				}
				sim.Run()
				if delivered != 50 {
					b.Fatalf("delivered %d/50", delivered)
				}
				retx = pair.A.Retransmitted
				elapsed = sim.Now()
			}
			b.ReportMetric(float64(retx), "retransmissions")
			b.ReportMetric(elapsed.Seconds(), "virtual_s")
		})
	}
}

// BenchmarkChecker_ParallelWorkers measures the S6 world (the largest
// scoped state space) as the worker count grows. Workers=1 is
// sequential DFS; more workers run the layered breadth-first engine,
// which applies fewer transitions for the same states.
func BenchmarkChecker_ParallelWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := core.S6World(false)
			opt := w.Options
			opt.Workers = workers
			var states int
			for i := 0; i < b.N; i++ {
				r, err := core.Screen(w, opt)
				if err != nil {
					b.Fatal(err)
				}
				states = r.Result.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkWalk_ParallelWorkers measures random-walk screening of the
// full composite world with walks distributed over workers. Walk w
// draws its schedule from a seed derived from (Seed, w), so every
// worker count samples the identical set of walks.
func BenchmarkWalk_ParallelWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := core.FullWorld(core.FullConfig{SwitchOpt: names.SwitchReselect, LossyAir: true})
			opt := w.Options
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := core.Screen(w, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScreenCampaign runs the whole phase-1 screening sweep
// sequentially and with campaign-level parallelism (one goroutine per
// world) — the end-to-end speedup a multi-scenario campaign sees.
func BenchmarkScreenCampaign(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ScreenWorlds(core.ScopedModels(), nil,
					core.CampaignOptions{Parallel: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChecker_ParanoidOverhead measures the cost of hash-collision
// verification (the Paranoid option) on the S3 world.
func BenchmarkChecker_ParanoidOverhead(b *testing.B) {
	for _, paranoid := range []bool{false, true} {
		name := "hash-only"
		if paranoid {
			name = "paranoid"
		}
		b.Run(name, func(b *testing.B) {
			w := core.S3World(false, names.SwitchReselect)
			opt := w.Options
			opt.Paranoid = paranoid
			for i := 0; i < b.N; i++ {
				if _, err := core.Screen(w, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_VoLTEvsCSFB contrasts the two 4G voice deployments
// of §2 on OP-II: CSFB strands the device after the call (S3); VoLTE
// never leaves 4G.
func BenchmarkAblation_VoLTEvsCSFB(b *testing.B) {
	run := func(volte bool) (stuck bool) {
		w := netemu.NewWorld(1)
		if volte {
			netemu.VoLTEStack(w, netemu.OPII(), netemu.FixSet{})
		} else {
			netemu.StandardStack(w, netemu.OPII(), netemu.FixSet{})
		}
		w.SetGlobal(names.GSys, 2) // types.Sys4G
		w.SetGlobal(names.GReg4G, 1)
		w.InjectAt(0, names.UERRC4G, types.Message{Kind: types.MsgUserDataOn})
		w.InjectAt(time.Second, names.UECM, types.Message{Kind: types.MsgUserDialCall})
		w.RunUntil(10 * time.Second)
		w.Inject(names.UECM, types.Message{Kind: types.MsgUserHangUp})
		w.Run()
		return w.Global(names.GWantReturn4G) == 1
	}
	for _, mode := range []struct {
		name  string
		volte bool
	}{{"CSFB", false}, {"VoLTE", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var stuck bool
			for i := 0; i < b.N; i++ {
				stuck = run(mode.volte)
			}
			v := 0.0
			if stuck {
				v = 1
			}
			b.ReportMetric(v, "stuck_after_call")
			if stuck == mode.volte {
				b.Fatalf("%s: stuck=%v", mode.name, stuck)
			}
		})
	}
}

// BenchmarkS5AffectedVolume regenerates §7's S5 volume accounting.
func BenchmarkS5AffectedVolume(b *testing.B) {
	var s experiments.S5Stats
	for i := 0; i < b.N; i++ {
		s = experiments.S5AffectedVolumes(113, 7)
	}
	b.ReportMetric(s.AvgAffectedKB, "avg_affected_KB")
	b.ReportMetric(float64(s.Over4MB), "calls_over_4MB")
	echo(b, "s5vol", s.String())
}

// BenchmarkInflationSweep runs the §7 exploit-inflation assessment.
func BenchmarkInflationSweep(b *testing.B) {
	rates := []float64{1, 10, 60}
	var without, with []experiments.InflationPoint
	for i := 0; i < b.N; i++ {
		without = experiments.InflationSweep(rates, 24*time.Hour, false, 1)
		with = experiments.InflationSweep(rates, 24*time.Hour, true, 1)
	}
	b.ReportMetric(without[len(without)-1].DegradedFraction*100, "degraded_pct_at_60cph")
	echo(b, "inflation", experiments.RenderInflation(without, with))
}

// BenchmarkTwoPhasePipeline runs the complete CNetVerifier workflow:
// phase-1 screening of every finding plus phase-2 replay of every
// counterexample on the emulator.
func BenchmarkTwoPhasePipeline(b *testing.B) {
	var reproduced, total int
	for i := 0; i < b.N; i++ {
		outcomes, err := validate.Campaign(validate.Config{})
		if err != nil {
			b.Fatal(err)
		}
		reproduced, total = 0, len(outcomes)
		for _, o := range outcomes {
			if o.Reproduced {
				reproduced++
			}
		}
	}
	b.ReportMetric(float64(reproduced), "reproduced")
	b.ReportMetric(float64(total), "counterexamples")
}
