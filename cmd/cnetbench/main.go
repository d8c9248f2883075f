// Command cnetbench regenerates every table and figure of the paper's
// evaluation from this repository's mechanisms and prints them in the
// paper's layout.
//
// Usage:
//
//	cnetbench [-exp all|table1|table3|table4|table5|table6|fig4|fig7|fig8|fig9|fig10|fig12|fig13|sec93]
//	          [-runs N] [-seed N] [-o FILE]
//	cnetbench -exp perf|por|sym|por+sym|campaign [-json [-perf-label L]] [-o FILE]
//
// -exp all runs every paper section plus s5vol, coverage, validate and
// inflation. The benchmark experiments (perf, por, sym, por+sym,
// campaign) run only when named, and only they take -json.
//
// Every argument is checked before -o FILE is opened. Exit status is 2
// on a usage error (a stray argument, an unknown experiment, -json or
// -perf-label on a paper section, -runs below 1), 1 when an experiment
// or the output file fails, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/experiments"
	"cnetverifier/internal/netemu"
	"cnetverifier/internal/validate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// perfExps are the benchmark experiments. None is part of -exp all:
// each reruns its screens many times under testing.Benchmark.
var perfExps = map[string]func() ([]experiments.PerfRun, error){
	// Screening throughput of every scoped world per worker count.
	"perf": func() ([]experiments.PerfRun, error) { return experiments.PerfScreen(nil) },
	// Partial-order reduction on the 3-UE world.
	"por": experiments.PerfPOR,
	// Symmetry reduction on the shared-core 4-UE world (the world POR
	// cannot decompose), off and on; por+sym composes it with POR. The
	// state-count ratio is the canonicalization acceptance number
	// recorded in BENCH_screen.json under this label.
	"sym":     func() ([]experiments.PerfRun, error) { return experiments.PerfSym(false) },
	"por+sym": func() ([]experiments.PerfRun, error) { return experiments.PerfSym(true) },
	// Population-scale load engine throughput: a 100k-UE campaign per
	// worker count; states_per_sec reads as procedure occurrences per
	// second.
	"campaign": func() ([]experiments.PerfRun, error) { return experiments.PerfCampaign(nil) },
}

// section is one experiment -exp all runs, in report order.
type section struct {
	name string
	f    func() (string, error)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cnetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment to regenerate (table1..6, fig4..13, sec93, s5vol, inflation, coverage, validate, perf, por, sym, por+sym, campaign)")
		runs    = fs.Int("runs", 100, "runs per distribution-style experiment")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		out     = fs.String("o", "", "write the report to FILE instead of stdout")
		asJSON  = fs.Bool("json", false, "emit machine-readable JSON (perf, por, sym, por+sym, campaign)")
		perfLbl = fs.String("perf-label", "current", "label stored in the perf JSON report")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cnetbench: "+format+"\n", a...)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	sections := paperSections(*runs, *seed)
	want := strings.ToLower(*exp)
	perf, isPerf := perfExps[want]
	var chosen []section
	for _, s := range sections {
		if want == "all" || want == s.name {
			chosen = append(chosen, s)
		}
	}

	if fs.NArg() > 0 {
		return usage("unexpected argument %q (choose the experiment with -exp)", fs.Arg(0))
	}
	if !isPerf && len(chosen) == 0 {
		known := []string{"all"}
		for _, s := range sections {
			known = append(known, s.name)
		}
		for name := range perfExps {
			known = append(known, name)
		}
		sort.Strings(known[1:])
		return usage("unknown experiment %q (known: %s)", *exp, strings.Join(known, ", "))
	}
	if !isPerf {
		for _, f := range []string{"json", "perf-label"} {
			if set[f] {
				return usage("-%s applies to the perf, por, sym, por+sym and campaign experiments, not %q", f, *exp)
			}
		}
	}
	if *runs < 1 {
		return usage("-runs must be at least 1, got %d", *runs)
	}

	report := func(w io.Writer) int {
		if isPerf {
			prs, err := perf()
			if err != nil {
				fmt.Fprintf(stderr, "cnetbench: %s: %v\n", want, err)
				return 1
			}
			if !*asJSON {
				fmt.Fprintln(w, experiments.RenderPerfTable(prs))
				return 0
			}
			s, err := experiments.RenderPerfJSON(*perfLbl, prs)
			if err != nil {
				fmt.Fprintf(stderr, "cnetbench: %s: %v\n", want, err)
				return 1
			}
			fmt.Fprintln(w, s)
			return 0
		}
		for _, s := range chosen {
			text, err := s.f()
			if err != nil {
				fmt.Fprintf(stderr, "cnetbench: %s: %v\n", s.name, err)
				return 1
			}
			fmt.Fprintln(w, text)
		}
		return 0
	}
	if *out == "" {
		return report(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "cnetbench:", err)
		return 1
	}
	code := report(f)
	if err := f.Close(); err != nil && code == 0 {
		fmt.Fprintln(stderr, "cnetbench:", err)
		return 1
	}
	return code
}

// paperSections lists the experiments -exp all runs, in report order.
func paperSections(runs int, seed int64) []section {
	return []section{
		{"table1", experiments.Table1},
		{"table3", func() (string, error) {
			return experiments.RenderTable3(experiments.Table3(seed)), nil
		}},
		{"table4", func() (string, error) {
			return experiments.RenderTable4(experiments.Table4(seed)), nil
		}},
		{"table5", func() (string, error) {
			return "Table 5: user study\n" + experiments.Table5(seed).Table(), nil
		}},
		{"table6", func() (string, error) {
			return experiments.RenderTable6(experiments.Table6StuckIn3G(runs, seed)), nil
		}},
		{"fig4", func() (string, error) {
			return experiments.RenderFigure4(experiments.Figure4RecoveryTime(runs, seed)), nil
		}},
		{"fig7", func() (string, error) {
			return experiments.RenderFigure7(experiments.Figure7CallSetup(netemu.OPI(), 60, seed)), nil
		}},
		{"fig8", func() (string, error) {
			return experiments.RenderFigure8(experiments.Figure8CDFs(runs*4, seed)), nil
		}},
		{"fig9", func() (string, error) {
			var b strings.Builder
			for _, p := range netemu.Operators() {
				for _, uplink := range []bool{false, true} {
					b.WriteString(experiments.RenderFigure9(p, uplink,
						experiments.Figure9Rates(p, uplink, runs, seed)))
					b.WriteByte('\n')
				}
			}
			return b.String(), nil
		}},
		{"fig10", func() (string, error) {
			return experiments.RenderFigure10(experiments.Figure10Trace(seed)), nil
		}},
		{"fig12", func() (string, error) {
			rates := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
			without := experiments.Figure12DetachVsDrop(rates, runs, false, seed)
			with := experiments.Figure12DetachVsDrop(rates, runs, true, seed)
			var b strings.Builder
			b.WriteString(experiments.RenderFigure12Left(without, with))
			b.WriteByte('\n')
			times := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second,
				4 * time.Second, 5 * time.Second, 6 * time.Second}
			b.WriteString(experiments.RenderFigure12Right(
				experiments.Figure12CallDelay(times, false),
				experiments.Figure12CallDelay(times, true)))
			return b.String(), nil
		}},
		{"fig13", func() (string, error) {
			return experiments.RenderFigure13(experiments.Figure13Rates()), nil
		}},
		{"sec93", func() (string, error) {
			return experiments.RenderSection93(experiments.Section93CrossSystem(runs, seed)), nil
		}},
		{"s5vol", func() (string, error) {
			return experiments.S5AffectedVolumes(113, 7).String(), nil
		}},
		{"coverage", func() (string, error) {
			var b strings.Builder
			for _, sc := range core.ScopedModels() {
				r, err := core.Screen(sc, check.Options{})
				if err != nil {
					return "", err
				}
				b.WriteString(core.CoverageSummary(sc, r))
			}
			return b.String(), nil
		}},
		{"validate", func() (string, error) {
			outcomes, err := validate.Campaign(validate.Config{})
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString("Two-phase validation campaign (§3.1):\n")
			for _, o := range outcomes {
				fmt.Fprintf(&b, "  %s\n", o)
			}
			return b.String(), nil
		}},
		{"inflation", func() (string, error) {
			rates := []float64{1, 5, 10, 30, 60}
			return experiments.RenderInflation(
				experiments.InflationSweep(rates, 24*time.Hour, false, seed),
				experiments.InflationSweep(rates, 24*time.Hour, true, seed)), nil
		}},
	}
}
