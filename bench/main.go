// Command bench is the repository's benchmark: seven workloads over the
// paper's pipeline (screen, shrink, replay), the fuzzer, the loss sweep
// and the population campaign, each run in a fresh child process,
// checked against known answers and reported as end-to-end metrics
// (tracing off) or per-layer metrics (-trace). README.md has the
// catalogue; BENCHMARK.json at the repository root names this command.
//
// Usage:
//
//	bench [-workload NAME|all] [-seed N] [-iters-scale X | -seconds S] [-trace] [-json FILE]
//	bench -agree [-workload NAME|all]
//	bench -compare OLD.json NEW.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload   string
	seed       int64
	itersScale float64
	seconds    float64
	trace      bool
	short      bool
	jsonOut    string
	traceOut   string
}

func main() {
	var (
		o       options
		child   childOpts
		agree   = flag.Bool("agree", false, "run the end-to-end pass twice and fail if two medians differ by more than the metric's bound")
		compare = flag.Bool("compare", false, "compare two -json files: bench -compare OLD.json NEW.json")
	)
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed for fuzzing, campaign, sweep and corpus sampling")
	flag.Float64Var(&o.itersScale, "iters-scale", 1, "multiply every workload's iteration count")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for about this long per workload: iterations = seconds / the workload's nominal iteration time")
	flag.BoolVar(&o.trace, "trace", false, "run the trace pass (per-layer metrics) instead of the end-to-end pass")
	flag.BoolVar(&o.short, "short", false, "smoke scale: the smallest world of each kind, one iteration")
	flag.StringVar(&o.jsonOut, "json", "", "also write the report to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a trace pass (default .bench_build/trace/<workload>.json)")
	flag.StringVar(&child.workload, "child", "", "internal: run this workload in this process")
	flag.IntVar(&child.iters, "iters", 1, "internal: iterations of a child")
	flag.BoolVar(&child.setupOnly, "setup-only", false, "internal: a child that stops after set-up")
	if err := flag.CommandLine.Parse(joinTraceValue(os.Args[1:])); err != nil {
		os.Exit(2)
	}

	var err error
	switch {
	case child.workload != "":
		child.seed, child.short, child.trace, child.traceOut = o.seed, o.short, o.trace, o.traceOut
		err = runChild(child)
	case *compare:
		err = runCompare(flag.Args())
	case *agree:
		err = runAgree(o)
	default:
		err = runReport(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinTraceValue lets -trace take its value as a separate argument
// ("--trace 0", as the benchmark contract passes it) although it is a
// boolean flag ("-trace" alone turns the trace pass on).
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func selected(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	w, ok := workloadByName(name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
	}
	return []workload{w}, nil
}

// iterations is the fixed iteration count of one child.
func (o options) iterations(w workload) int {
	n := float64(w.iters) * o.itersScale
	if o.seconds > 0 {
		n = o.seconds / w.nominal
		if o.trace { // a trace pass runs every iteration twice, untraced and traced
			n /= 2
		}
	}
	if o.short || n < 1 {
		return 1
	}
	return int(math.Round(n))
}

// maxProcs is what every child runs with: the workloads never use more
// than 2 workers, and a fixed value keeps boxes with more CPUs comparable.
func maxProcs() int { return min(runtime.NumCPU(), 2) }

// spawn runs one child and returns how long its set-up took, measured
// from before the process starts to its "ready" line, and its result
// (nil for a set-up-only child).
func spawn(o options, w workload, extra ...string) (float64, *childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	args := append([]string{
		"-child", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-iters", strconv.Itoa(o.iterations(w)),
		"-short=" + strconv.FormatBool(o.short),
	}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var setup float64
	var last string
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 16<<20)
	for lines.Scan() {
		if setup == 0 && lines.Text() == readyLine {
			setup = time.Since(start).Seconds()
			continue
		}
		last = lines.Text()
	}
	// Wait reaps the child whatever happened to its output.
	if err := errors.Join(lines.Err(), cmd.Wait()); err != nil {
		return 0, nil, fmt.Errorf("%s: child process: %w", w.name, err)
	}
	if setup == 0 {
		return 0, nil, fmt.Errorf("%s: child process never finished set-up", w.name)
	}
	if last == "" {
		return setup, nil, nil
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return 0, nil, fmt.Errorf("%s: child result: %w", w.name, err)
	}
	return setup, &res, nil
}

// Set-up is sampled from fresh processes: the measuring child gives one
// sample, set-up-only children give the rest, at least setupSamplesMin
// and more while they are cheap.
const (
	setupSamplesMin = 3
	setupSamplesMax = 7
	setupBudget     = 2 * time.Second
)

// measure runs one workload's pass and gathers its report.
func measure(o options, w workload) (*workloadReport, error) {
	rep := &workloadReport{Name: w.name, Metrics: map[string]*metricReport{}}
	if o.trace {
		out := o.traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace", w.name+".json")
		}
		_, res, err := spawn(o, w, "-trace", "-trace-out", out)
		if err != nil {
			return nil, err
		}
		rep.fromChild(res)
		for name, v := range res.Layer {
			rep.add(name, v.Unit, v.Value)
		}
		return rep, nil
	}
	setup, res, err := spawn(o, w)
	if err != nil {
		return nil, err
	}
	rep.fromChild(res)
	rep.add("wall_s", "s", res.WallS...)
	rep.add("cpu_s", "s", res.CPUS...)
	rep.add("peak_heap_mb", "MB", res.PeakHeapMB)
	rep.add("fail_share", "ratio", float64(len(res.Failures))/float64(res.Checks))
	rep.add("setup_s", "s", setup)
	for start, n := time.Now(), 1; !o.short && (n < setupSamplesMin || (n < setupSamplesMax && time.Since(start) < setupBudget)); n++ {
		setup, _, err := spawn(o, w, "-setup-only")
		if err != nil {
			return nil, err
		}
		rep.add("setup_s", "s", setup)
	}
	return rep, nil
}

func environment(o options) envBlock {
	env := envBlock{
		CPUs: runtime.NumCPU(), GOMAXPROCS: maxProcs(), Go: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown", Seed: o.seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// pass runs the selected workloads once and returns the report.
func pass(o options) (*report, error) {
	ws, err := selected(o.workload)
	if err != nil {
		return nil, err
	}
	r := &report{Schema: schema, Env: environment(o), Mode: "end_to_end"}
	if o.trace {
		r.Mode = "trace"
	}
	for _, w := range ws {
		wr, err := measure(o, w)
		if err != nil {
			return nil, err
		}
		r.Workloads = append(r.Workloads, wr)
	}
	return r, nil
}

func runReport(o options) error {
	r, err := pass(o)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(r.Workloads) == 1 {
		// The benchmark contract's result line: the last line of output.
		fmt.Println(r.Workloads[0].contractLine(o.trace))
	}
	if failed := r.failed(); failed > 0 {
		return fmt.Errorf("%d output check(s) failed", failed)
	}
	return nil
}

// runAgree is the benchmark's own repeatability check: the same code,
// seed and settings must give the same numbers within each bound.
func runAgree(o options) error {
	o.trace = false
	var passes [2]*report
	for i := range passes {
		r, err := pass(o)
		if err != nil {
			return err
		}
		if failed := r.failed(); failed > 0 {
			r.print(os.Stdout)
			return fmt.Errorf("%d output check(s) failed", failed)
		}
		passes[i] = r
	}
	disagreements := 0
	fmt.Printf("%-22s %-13s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for i, a := range passes[0].Workloads {
		b := passes[1].Workloads[i]
		for _, def := range endToEnd {
			x, y := a.Metrics[def.name].summary().Median, b.Metrics[def.name].summary().Median
			differ := 0.0
			if x != y {
				differ = math.Abs(y-x) / x
			}
			verdict := ""
			if differ > def.bound {
				verdict = "  DISAGREE"
				disagreements++
			}
			fmt.Printf("%-22s %-13s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", a.Name, def.name, x, y, differ*100, def.bound*100, verdict)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("two runs of the same code disagree on %d metric(s)", disagreements)
	}
	fmt.Println("agree: every pair of medians is within its bound")
	return nil
}
