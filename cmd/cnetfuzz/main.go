// Command cnetfuzz runs coverage-guided fuzzing over a scoped world's
// scenario schedules (internal/fuzz) and ddmin-shrinks violation
// traces to 1-minimal counterexamples.
//
// Usage:
//
//	cnetfuzz [-world s1|s2|s3|s4cs|s4ps|s6|full] [-fixed]
//	         [-budget N] [-workers N] [-seed N] [-round N]
//	         [-max-events N] [-drain N] [-corpus DIR]
//	         [-shrink] [-screen] [-cov-report] [-json]
//	         [-min-new N] [-first]
//
// Two modes:
//
//   - Fuzzing (default): mutate–execute–keep rounds against the chosen
//     world until -budget applied transitions are spent. -corpus names a
//     directory of *.sched seed schedules; inputs kept for new coverage
//     are written back there. -cov-report prints the per-process
//     coverage table plus a uniform-random control arm at the same
//     budget (the fuzz-vs-random comparison of EXPERIMENTS.md).
//     -min-new exits 1 unless at least N inputs lit up new coverage —
//     the ci.sh smoke gate.
//
//   - Screening post-processing (-screen): take violations from a
//     core.ScreenWorlds campaign instead of fuzzing. With -shrink, each
//     screening counterexample is ddmin-reduced and re-verified; this is
//     the pipeline that regenerates the minimized golden corpus.
//
// -shrink applies to both modes: every violation found is reduced to a
// trace from which no single step can be removed, re-verified with
// check.Replay, and printed with its stability digest.
//
// Exit status: 2 on misuse (a stray argument, an unknown world, a flag
// the mode does not use, a count below 1), 1 on error or an unmet
// -min-new floor, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/fuzz"
	"cnetverifier/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fuzzOnly lists the flags that configure fuzzing, which -screen does
// not do.
var fuzzOnly = []string{"budget", "workers", "seed", "round", "max-events", "drain", "corpus",
	"cov-report", "min-new", "first", "timing", "timing-profile"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cnetfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		world     = fs.String("world", "full", "world to fuzz: "+strings.Join(core.WorldNames(), ", ")+", or all (with -screen)")
		fixed     = fs.Bool("fixed", false, "enable the §8 fixes")
		budget    = fs.Int("budget", 50000, "total applied-transition budget")
		workers   = fs.Int("workers", 1, "executor goroutines (any count gives identical results)")
		seed      = fs.Int64("seed", 1, "run seed")
		round     = fs.Int("round", 32, "candidate schedules per round")
		maxEvents = fs.Int("max-events", 12, "max environment events per schedule")
		drain     = fs.Int("drain", 8, "queued messages processed after each injection")
		corpusDir = fs.String("corpus", "", "schedule corpus directory (load *.sched seeds, write kept inputs back)")
		doShrink  = fs.Bool("shrink", false, "ddmin-shrink every violation to a 1-minimal trace")
		doScreen  = fs.Bool("screen", false, "take violations from a screening campaign instead of fuzzing")
		covReport = fs.Bool("cov-report", false, "print the coverage table and the uniform-random control arm")
		jsonOut   = fs.Bool("json", false, "emit a machine-readable JSON summary (with -screen: of the shrunk traces, so -shrink too)")
		minNew    = fs.Int("min-new", 0, "exit 1 unless at least N inputs lit up new coverage")
		first     = fs.Bool("first", false, "stop fuzzing at the end of the first violating round")
		timing    = fs.Bool("timing", false, "discrete virtual time: fuzz with protocol timers as [earliest, latest] expiry windows, timer-expiry directives and window stretches join the mutation operators")
		timProf   = fs.String("timing-profile", "nas", "timer-window derivation for -timing: nas or degenerate (see cnetverify)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cnetfuzz: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cnetfuzz:", err)
		return 1
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if fs.NArg() > 0 {
		return usage("unexpected argument %q (choose the world with -world)", fs.Arg(0))
	}
	name := strings.ToLower(*world)
	s, ok := core.StandardWorlds(*fixed)[name]
	if !ok && !(*doScreen && name == "all") {
		return usage("unknown world %q (known: %s; all with -screen)", *world, strings.Join(core.WorldNames(), ", "))
	}
	if *doScreen {
		for _, f := range fuzzOnly {
			if set[f] {
				return usage("-%s configures fuzzing; -screen screens the standard worlds untimed and does not fuzz", f)
			}
		}
		if *jsonOut && !*doShrink {
			return usage("-json with -screen reports the shrunk traces; add -shrink")
		}
		if name == "all" && *fixed {
			return usage("-screen -world all screens the defective worlds; -fixed needs one world")
		}
		scoped := []core.Scoped{s}
		if name == "all" {
			scoped = core.ScopedModels()
		}
		if err := screenMode(stdout, scoped, *doShrink, *jsonOut); err != nil {
			return fail(err)
		}
		return 0
	}
	if set["timing-profile"] && !*timing {
		return usage("-timing-profile needs -timing")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"budget", *budget}, {"workers", *workers}, {"round", *round}, {"max-events", *maxEvents}, {"drain", *drain}} {
		if f.v < 1 {
			return usage("-%s must be at least 1, got %d", f.name, f.v)
		}
	}

	if *timing {
		profile, err := core.ParseTimingProfile(*timProf)
		if err != nil {
			return usage("-timing-profile: %v", err)
		}
		if s, err = core.WithTiming(s, profile); err != nil {
			return fail(err)
		}
	}

	opt := fuzz.Options{
		Budget:      *budget,
		Workers:     *workers,
		Seed:        *seed,
		MaxEvents:   *maxEvents,
		Drain:       *drain,
		RoundSize:   *round,
		Pool:        s.Scenario.Events(s.World),
		TimerPool:   s.World.TimerEvents(),
		StopAtFirst: *first,
	}
	if *corpusDir != "" {
		seeds, err := loadCorpus(*corpusDir)
		if err != nil {
			return fail(err)
		}
		opt.Corpus = seeds
	}

	res, err := fuzz.Fuzz(s.World, s.Props, opt)
	if err != nil {
		return fail(err)
	}

	var baseline *fuzz.Result
	if *covReport {
		if baseline, err = fuzz.RandomBaseline(s.World, s.Props, opt); err != nil {
			return fail(err)
		}
	}

	var shrunk []fuzz.ShrinkResult
	if *doShrink {
		for _, v := range res.Violations {
			sr, err := fuzz.Shrink(s.World, s.Props, v, fuzz.ShrinkOptions{})
			if err != nil {
				return fail(err)
			}
			shrunk = append(shrunk, *sr)
		}
	}

	if *corpusDir != "" {
		if err := saveCorpus(*corpusDir, res.Corpus); err != nil {
			return fail(err)
		}
	}

	if *jsonOut {
		out := struct {
			World    string              `json:"world"`
			Fuzz     *fuzz.Result        `json:"fuzz"`
			Baseline *fuzz.Result        `json:"baseline,omitempty"`
			Shrunk   []fuzz.ShrinkResult `json:"shrunk,omitempty"`
		}{*world, res, baseline, shrunk}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		printFuzz(stdout, *world, s.World, res, baseline, *covReport)
		printShrunk(stdout, shrunk)
	}

	if res.NewCoverageInputs < *minNew {
		fmt.Fprintf(stderr, "cnetfuzz: only %d new-coverage inputs, want >= %d\n", res.NewCoverageInputs, *minNew)
		return 1
	}
	return 0
}

func printFuzz(out io.Writer, world string, w *model.World, res, baseline *fuzz.Result, covReport bool) {
	fmt.Fprintf(out, "fuzz %s: %d schedules in %d rounds, %d steps, %d new-coverage inputs, %d violation(s)\n",
		world, res.Schedules, res.Rounds, res.Steps, res.NewCoverageInputs, len(res.Violations))
	fmt.Fprintf(out, "coverage digest %s\n", res.CoverageDigest)
	if covReport {
		fmt.Fprint(out, res.Coverage.Report(w))
		if baseline != nil {
			fmt.Fprintf(out, "uniform-random control at the same budget: %d/%d transitions, %d pairs (%d steps)\n",
				baseline.TransitionsFired, baseline.TransitionsTotal, baseline.PairsCovered, baseline.Steps)
			fmt.Fprint(out, baseline.Coverage.Report(w))
		}
	}
	for _, v := range res.Violations {
		fmt.Fprint(out, check.FormatCounterexample(v))
	}
}

func printShrunk(out io.Writer, shrunk []fuzz.ShrinkResult) {
	for _, sr := range shrunk {
		fmt.Fprintf(out, "shrunk %s (%s): %d -> %d steps in %d tests, digest %s\n",
			sr.Property, sr.Desc, sr.OriginalSteps, sr.Steps, sr.Tests, sr.Digest)
		for i, s := range sr.Path {
			fmt.Fprintf(out, "  %3d. %s\n", i+1, s)
		}
	}
}

// screenMode runs the screening campaign and (with -shrink) reduces its
// counterexamples — the pipeline behind the minimized golden corpus.
func screenMode(stdout io.Writer, scoped []core.Scoped, doShrink, jsonOut bool) error {
	results, err := core.ScreenWorlds(scoped, nil, core.CampaignOptions{})
	if err != nil {
		return err
	}
	if !doShrink {
		fmt.Fprint(stdout, core.Report(results, false))
		return nil
	}
	shrunk, err := core.ShrinkScreened(scoped, results, fuzz.ShrinkOptions{})
	if err != nil {
		return err
	}
	if jsonOut {
		out := make(map[string][]fuzz.ShrinkResult, len(results))
		for i, r := range results {
			out[string(r.Finding)] = shrunk[i]
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	for i, r := range results {
		fmt.Fprintf(stdout, "%s: %d violation(s)\n", r.Finding, len(r.Result.Violations))
		printShrunk(stdout, shrunk[i])
	}
	return nil
}

// loadCorpus reads every *.sched file of dir in name order.
func loadCorpus(dir string) ([]fuzz.Schedule, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.sched"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []fuzz.Schedule
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		s, err := fuzz.DecodeSchedule(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// saveCorpus writes the kept schedules as kept-NNNN.sched files.
func saveCorpus(dir string, corpus []fuzz.Schedule) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range corpus {
		p := filepath.Join(dir, fmt.Sprintf("kept-%04d.sched", i))
		if err := os.WriteFile(p, []byte(fuzz.EncodeSchedule(s)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
