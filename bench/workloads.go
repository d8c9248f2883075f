package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"cnetverifier/internal/campaign"
	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/fuzz"
	"cnetverifier/internal/lint"
	"cnetverifier/internal/trace"
	"cnetverifier/internal/validate"
)

// A workload is one closed-loop caller repeating one iteration. Its
// definition (world, options, input size) is fixed; only the number of
// iterations scales with -iters-scale or -seconds.
type workload struct {
	name string
	why  string
	// iters is the iteration count of a full run at -iters-scale 1.
	iters int
	// nominal is the wall time of one iteration on the reference box
	// (README, "Baseline"). -seconds S runs round(S/nominal) iterations:
	// a count that is the same on every run, so that the sample count and
	// peak heap do not depend on how fast one run happened to go.
	nominal float64
	// warmup discards one iteration before timing starts (iterations
	// under 2 s, where first-call costs would otherwise show). A workload
	// without it runs its smoke-scale sibling once instead, as a
	// preflight; either way set-up does enough work to be timed steadily.
	warmup bool
	// setup builds the workload's inputs and checks what is checked once.
	// It runs in the child process before the first timed iteration.
	setup func(short bool, seed int64, c *checker) (*instance, error)
}

// instance is a workload ready to iterate.
type instance struct {
	// run is one timed iteration. It calls the layers through their
	// public functions, inside spans when tr is not nil.
	run func(tr *tracer) (any, error)
	// verify checks one iteration's result against known answers, records
	// the counts the result structs expose and returns a digest that must
	// be the same on every iteration. It is not timed.
	verify func(res any, it iterStats, c *checker) string
	// probe is the world the layer probes draw their state corpus from.
	probe core.Scoped
	// screen marks a workload whose iteration is one screening run, so
	// that its wall time can be attributed to the model's layer costs;
	// canon says that it keys its visited set canonically.
	screen, canon bool
	// attribRun, when set, is the run that attribution is made on instead
	// of the workload's own; extras fill in its wall time and transition
	// count.
	attribRun                     func(tr *tracer) (any, error)
	attribWall, attribTransitions float64
	// extras are the comparator runs of the trace pass (BFS, sequential,
	// two workers); nil when the workload has none.
	extras func(m metrics) error
}

// checker counts output checks. A failed check is recorded, never fatal:
// fail_share is failed ÷ made.
type checker struct {
	made     int
	failures []string
	counts   metrics
}

func newChecker() *checker { return &checker{counts: metrics{}} }

func (c *checker) ok(cond bool, format string, args ...any) {
	c.made++
	if !cond {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checker) eq(what string, got, want any) {
	c.ok(got == want, "%s = %v, want %v", what, got, want)
}

func (c *checker) fail(err error) { c.ok(false, "%v", err) }

const defaultSeed = 1

func digestOf(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprintln(h, parts...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// violationSet renders the (property, description) pairs in sorted
// order: the part of a screening result every engine configuration
// agrees on.
func violationSet(r *check.Result) string {
	lines := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		lines[i] = v.Property + ": " + v.Desc
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func countChecks(c *checker, rs ...*check.Result) {
	var states, transitions, violations, depth float64
	for _, r := range rs {
		states += float64(r.States)
		transitions += float64(r.Transitions)
		violations += float64(len(r.Violations))
		if d := float64(r.MaxDepth); d > depth {
			depth = d
		}
	}
	c.counts.set("check.states", states)
	c.counts.set("check.transitions", transitions)
	c.counts.set("check.violations", violations)
	c.counts.set("check.max_depth", depth)
	c.counts.set("check.new_state_share", states/transitions)
	if len(rs) == 1 && rs[0].Visited != nil {
		v := rs[0].Visited
		c.counts.set("check.visited_b_per_state", (float64(v.Slots)*8+float64(v.ArenaBytes))/states)
		c.counts.set("check.visited_grows", float64(v.Grows))
		c.counts.set("check.probe_max", float64(v.MaxProbe))
	}
}

var workloads = []workload{
	{
		name: "pipeline-std", iters: 31, nominal: 0.23, warmup: true, setup: setupPipeline,
		why: "Six small standard worlds through lint, BFS screen, shrink, lossless replay and fix verification: fixed per-run costs dominate, the exploration hot path does little.",
	},
	{
		name: "screen-sym-shared4", iters: 3, nominal: 6.0, setup: setupSymShared,
		why: "4 shared-core UEs under Symmetry, DFS: 29 transitions per new state, so canonical encode+sort+hash and visited hits do the work; no timers.",
	},
	{
		name: "screen-timed-s1", iters: 5, nominal: 2.9, setup: setupTimedS1,
		why: "NAS-timed S1, plain hash, DFS: 6.7 transitions per new state, so visited misses, clone-on-new, table growth and timer-step enumeration dominate.",
	},
	{
		name: "screen-par2-shared3", iters: 7, nominal: 0.95, warmup: true, setup: setupPar2,
		why: "3 shared-core UEs with 2 workers: the work-stealing expand path, per-worker arenas and world pool the sequential workloads never enter.",
	},
	{
		name: "fuzz-s6", iters: 3, nominal: 2.9, setup: setupFuzz,
		why: "Coverage-guided fuzzing of S6 plus shrinking: drives the model forward-only (Apply, Clone, coverage map), not apply/undo.",
	},
	{
		name: "campaign-1m", iters: 5, nominal: 1.0, warmup: true, setup: setupCampaign,
		why: "10^6 UEs for one simulated hour: timer wheel, samplers and report fold; touches no model or checker code, so screening changes predict no movement.",
	},
	{
		name: "sweep-loss", iters: 5, nominal: 2.0, warmup: true, setup: setupSweep,
		why: "1,152 lossy replays of pre-screened findings: random air loss arms, backs off and aborts retransmission timers on the emulator's event heap.",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- pipeline-std ----

// stdFindings pins, per finding, the property screening must see
// violated and how many of its shrunk counterexamples reproduce on the
// emulator (EXPERIMENTS.md, "Two-phase pipeline": S1 5/7, S2 6/11,
// S3 1/1, S4 2/2, S6 11/11).
var stdFindings = map[core.FindingID]struct {
	properties             string
	reproduced, violations int
}{
	core.S1: {"PacketService_OK", 5, 7},
	core.S2: {"PacketService_OK", 6, 11},
	core.S3: {"MM_OK", 1, 1},
	core.S4: {"CallService_OK DataService_OK", 2, 2},
	core.S6: {"PacketService_OK", 11, 11},
}

// Pinned totals of one pipeline iteration: BFS screening of the six
// defective worlds plus DFS verification of the six fixed ones.
const (
	pipelineStates      = 20635
	pipelineTransitions = 89641
)

type pipelineResult struct {
	lintErrors int
	screened   []core.ScreenResult
	shrunk     [][]fuzz.ShrinkResult
	outcomes   []validate.Outcome
	fixed      []core.ScreenResult
}

// The probe world is S6, the largest of the six.
func setupPipeline(short bool, seed int64, c *checker) (*instance, error) {
	return &instance{run: runPipeline, verify: verifyPipeline, probe: core.S6World(false)}, nil
}

func runPipeline(tr *tracer) (any, error) {
	res := &pipelineResult{}

	end := tr.begin("core", "pipeline.build")
	scoped := core.ScopedModels()
	end()

	end = tr.begin("lint", "pipeline.lint")
	for _, s := range scoped {
		endCall := tr.begin("lint", "core.LintWorld")
		rep := core.LintWorld(s, lint.Options{Suppress: s.Options.LintSuppress})
		endCall()
		res.lintErrors += len(rep.At(lint.Error))
	}
	end()

	end = tr.begin("check", "pipeline.screen")
	for _, s := range scoped {
		opt := s.Options
		opt.Strategy = check.BFS
		endCall := tr.begin("check", "core.Screen")
		r, err := core.Screen(s, opt)
		endCall()
		if err != nil {
			return nil, err
		}
		res.screened = append(res.screened, r)
	}
	end()

	end = tr.begin("fuzz", "pipeline.shrink")
	shrunk, err := core.ShrinkScreened(scoped, res.screened, fuzz.ShrinkOptions{})
	end()
	if err != nil {
		return nil, err
	}
	res.shrunk = shrunk

	end = tr.begin("validate", "pipeline.replay")
	for i, s := range scoped {
		cfg := validate.Config{InitialGlobals: s.World.GlobalsMap()}
		for _, sr := range shrunk[i] {
			v := check.Violation{Property: sr.Property, Desc: sr.Desc, Path: sr.Path}
			endCall := tr.begin("validate", "validate.Replay")
			o, err := validate.Replay(s.Finding, v, cfg)
			endCall()
			if err != nil {
				return nil, err
			}
			res.outcomes = append(res.outcomes, o)
		}
	}
	end()

	end = tr.begin("check", "pipeline.verifyfixes")
	res.fixed, err = core.VerifyFixes()
	end()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func verifyPipeline(res any, it iterStats, c *checker) string {
	r := res.(*pipelineResult)
	c.eq("lint error findings", r.lintErrors, 0)

	props := map[core.FindingID]map[string]bool{}
	violations := map[core.FindingID]int{}
	var all []*check.Result
	for _, s := range r.screened {
		if props[s.Finding] == nil {
			props[s.Finding] = map[string]bool{}
		}
		for _, v := range s.Result.Violations {
			props[s.Finding][v.Property] = true
		}
		violations[s.Finding] += len(s.Result.Violations)
		all = append(all, s.Result)
	}
	reproduced := map[core.FindingID]int{}
	var records, retx, reproducedAll float64
	for _, o := range r.outcomes {
		if o.Reproduced {
			reproduced[o.Finding]++
			reproducedAll++
		}
		records += float64(len(o.Trace))
		for _, rec := range o.Trace {
			if rec.Type == trace.TypeRetx {
				retx++
			}
		}
	}
	for id, want := range stdFindings {
		names := make([]string, 0, len(props[id]))
		for p := range props[id] {
			names = append(names, p)
		}
		sort.Strings(names)
		c.eq(string(id)+" violated properties", strings.Join(names, " "), want.properties)
		c.eq(string(id)+" counterexamples", violations[id], want.violations)
		c.eq(string(id)+" reproduced on the emulator", reproduced[id], want.reproduced)
	}

	var tests, steps, original float64
	for _, world := range r.shrunk {
		for _, sr := range world {
			tests += float64(sr.Tests)
			steps += float64(sr.Steps)
			original += float64(sr.OriginalSteps)
			c.ok(sr.Steps <= sr.OriginalSteps, "shrink grew a %s trace from %d to %d steps", sr.Property, sr.OriginalSteps, sr.Steps)
		}
	}

	c.eq("fixed worlds verified", len(r.fixed), 6)
	for _, f := range r.fixed {
		c.ok(!f.Violated(), "fixed %s world still violates", f.Finding)
		all = append(all, f.Result)
	}
	countChecks(c, all...)
	c.eq("pipeline states", int(c.counts["check.states"].Value), pipelineStates)
	c.eq("pipeline transitions", int(c.counts["check.transitions"].Value), pipelineTransitions)

	n := float64(len(r.outcomes))
	c.counts.set("validate.replays", n)
	c.counts.set("netemu.retained_kb_per_replay", it.retained/1024/n)
	c.counts.set("fuzz.shrink_tests", tests)
	c.counts.set("fuzz.shrink_ratio", steps/original)
	c.counts.set("validate.reproduced_share", reproducedAll/n)
	c.counts.set("netemu.records_per_replay", records/n)
	c.counts.set("netemu.retx_per_replay", retx/n)

	parts := []any{r.lintErrors, tests, steps}
	for _, s := range r.screened {
		parts = append(parts, s.Result.States, s.Result.Transitions, violationSet(s.Result))
	}
	for _, o := range r.outcomes {
		parts = append(parts, o.Reproduced, o.EventCount, len(o.Trace))
	}
	for _, f := range r.fixed {
		parts = append(parts, f.Result.States, f.Result.Transitions)
	}
	return digestOf(parts...)
}

// ---- screening workloads ----

// screenAnswer pins a screening run: counts, and the one property every
// violation must name.
type screenAnswer struct {
	states, transitions, violations, maxDepth int
	property                                  string
}

// screenInstance iterates core.Screen over a fresh world each time (a
// world carries scratch buffers; a user screening it builds it first).
func screenInstance(build func() (core.Scoped, check.Options, error), want screenAnswer, c *checker) (*instance, error) {
	probe, _, err := build()
	if err != nil {
		return nil, err
	}
	rep := core.LintWorld(probe, lint.Options{Suppress: probe.Options.LintSuppress})
	c.eq("lint error findings", len(rep.At(lint.Error)), 0)

	in := &instance{probe: probe, screen: true}
	in.run = func(tr *tracer) (any, error) {
		end := tr.begin("core", "build")
		s, opt, err := build()
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("check", "core.Screen")
		r, err := core.Screen(s, opt)
		end()
		if err != nil {
			return nil, err
		}
		return r.Result, nil
	}
	in.verify = func(res any, it iterStats, c *checker) string {
		r := res.(*check.Result)
		c.eq("states", r.States, want.states)
		c.eq("violations", len(r.Violations), want.violations)
		// A parallel run (transitions 0) agrees with the sequential one on
		// the states and the violation set; what tallies its work, the
		// transition count and the deepest path a worker happened to walk,
		// varies with scheduling (internal/check/parallel.go).
		depth := r.MaxDepth
		if want.transitions > 0 {
			c.eq("transitions", r.Transitions, want.transitions)
			c.eq("max depth", depth, want.maxDepth)
		} else {
			c.ok(depth <= want.maxDepth, "max depth = %d, over the bound of %d", depth, want.maxDepth)
			depth = want.maxDepth
		}
		for _, v := range r.Violations {
			c.eq("violated property", v.Property, want.property)
		}
		countChecks(c, r)
		c.counts.set("check.states_per_s", float64(r.States)/it.wall)
		c.counts.set("check.ns_per_transition", it.wall*1e9/float64(r.Transitions))
		c.counts.set("check.alloc_b_per_state", it.allocB/float64(r.States))
		c.counts.set("check.allocs_per_state", it.allocs/float64(r.States))
		return digestOf(r.States, depth, violationSet(r))
	}
	return in, nil
}

// reexpansion adds the trace pass's BFS comparator: DFS re-expands a
// state each time it is reached at a smaller depth, BFS never does.
func reexpansion(build func() (core.Scoped, check.Options, error), dfsTransitions int) func(metrics) error {
	return func(m metrics) error {
		s, opt, err := build()
		if err != nil {
			return err
		}
		opt.Strategy = check.BFS
		r, err := core.Screen(s, opt)
		if err != nil {
			return err
		}
		m.set("check.reexpansion_ratio", float64(dfsTransitions)/float64(r.Result.Transitions))
		return nil
	}
}

func setupSymShared(short bool, seed int64, c *checker) (*instance, error) {
	n, want := 4, screenAnswer{66045, 1930769, 4, 48, "DataService_OK"}
	if short {
		n, want = 3, screenAnswer{7140, 95593, 3, 48, "DataService_OK"}
	}
	build := func() (core.Scoped, check.Options, error) {
		s := core.MultiUEWorldShared(n, false)
		opt := s.Options
		opt.Symmetry = true
		return s, opt, nil
	}
	in, err := screenInstance(build, want, c)
	if err != nil {
		return nil, err
	}
	in.canon = true
	in.extras = reexpansion(build, want.transitions)
	return in, nil
}

func setupTimedS1(short bool, seed int64, c *checker) (*instance, error) {
	base := func() core.Scoped { return core.S1World(false) }
	want := screenAnswer{205768, 1374544, 11, 22, "PacketService_OK"}
	timingOnly := 4
	if short {
		base = func() core.Scoped { return core.MultiUEWorldShared(2, false) }
		want = screenAnswer{3468, 171009, 2, 48, "DataService_OK"}
		timingOnly = 0
	}
	build := func() (core.Scoped, check.Options, error) {
		s, err := core.WithTiming(base(), core.TimingNAS)
		return s, s.Options, err
	}
	in, err := screenInstance(build, want, c)
	if err != nil {
		return nil, err
	}
	// The untimed world's violations are the baseline the timing-only
	// ones are counted against (EXPERIMENTS.md timing table: S1 gains 4).
	untimed, err := core.Screen(base(), check.Options{})
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, v := range untimed.Result.Violations {
		known[v.Property+v.Desc] = true
	}
	verify := in.verify
	in.verify = func(res any, it iterStats, c *checker) string {
		extra := 0
		for _, v := range res.(*check.Result).Violations {
			if !known[v.Property+v.Desc] {
				extra++
			}
		}
		c.eq("timing-only violations", extra, timingOnly)
		return verify(res, it, c)
	}
	in.extras = reexpansion(build, want.transitions)
	return in, nil
}

func setupPar2(short bool, seed int64, c *checker) (*instance, error) {
	n, want := 3, screenAnswer{39304, 0, 3, 48, "DataService_OK"}
	if short {
		n, want = 2, screenAnswer{1156, 0, 2, 25, "DataService_OK"}
	}
	build := func(workers int) func() (core.Scoped, check.Options, error) {
		return func() (core.Scoped, check.Options, error) {
			s := core.MultiUEWorldShared(n, false)
			opt := s.Options
			opt.Workers = workers
			return s, opt, nil
		}
	}
	in, err := screenInstance(build(2), want, c)
	if err != nil {
		return nil, err
	}
	// The sequential comparator of the trace pass: same world, 1 worker.
	seq, err := screenInstance(build(1), want, newChecker())
	if err != nil {
		return nil, err
	}
	in.attribRun = seq.run
	in.extras = func(m metrics) error {
		one, two, seqRes, err := sideBySide(seq.run, in.run)
		if err != nil {
			return err
		}
		m.set("check.par2_speedup", one.wall/two.wall)
		m.set("check.par2_cpu_ratio", two.cpu/one.cpu)
		in.attribWall = one.wall
		in.attribTransitions = float64(seqRes.(*check.Result).Transitions)
		return nil
	}
	return in, nil
}

// sideBySide times two untraced iteration functions three times each,
// alternating, and returns their median times and a's last result.
func sideBySide(a, b func(*tracer) (any, error)) (ta, tb iterStats, resA any, err error) {
	var wall, cpu [2][]float64
	for round := 0; round < 3; round++ {
		for i, run := range []func(*tracer) (any, error){a, b} {
			cpu0, t0 := cpuSeconds(), time.Now()
			res, err := run(nil)
			if err != nil {
				return ta, tb, nil, err
			}
			wall[i] = append(wall[i], time.Since(t0).Seconds())
			cpu[i] = append(cpu[i], cpuSeconds()-cpu0)
			if i == 0 {
				resA = res
			}
		}
	}
	ta = iterStats{wall: median(wall[0]), cpu: median(cpu[0])}
	tb = iterStats{wall: median(wall[1]), cpu: median(cpu[1])}
	return ta, tb, resA, nil
}

// ---- fuzz-s6 ----

type fuzzResult struct {
	fuzz   *fuzz.Result
	shrunk []*fuzz.ShrinkResult
}

// fuzzSeed is the fuzzer's run seed. It is part of the workload's
// definition, like the budget, and does not follow -seed: how many inputs
// the fuzzer keeps is a property of its seed, and over ten seeds peak heap
// read 16 to 85 MB and wall time 2.7 to 3.1 s (README, "Departures").
const fuzzSeed = 1

func setupFuzz(short bool, seed int64, c *checker) (*instance, error) {
	budget := 200000
	pinSteps, pinSchedules, pinViolations := 200023, 79235, 22
	if short {
		budget = 20000
		pinSteps, pinSchedules, pinViolations = 20005, 7779, 20
	}
	s := core.S6World(false)
	in := &instance{probe: s}
	in.run = func(tr *tracer) (any, error) {
		end := tr.begin("fuzz", "fuzz.Fuzz")
		fr, err := fuzz.Fuzz(s.World, s.Props, fuzz.Options{Budget: budget, Workers: 1, Seed: fuzzSeed})
		end()
		if err != nil {
			return nil, err
		}
		out := &fuzzResult{fuzz: fr}
		for _, v := range fr.Violations {
			end := tr.begin("fuzz", "fuzz.Shrink")
			sr, err := fuzz.Shrink(s.World, s.Props, v, fuzz.ShrinkOptions{})
			end()
			if err != nil {
				return nil, err
			}
			out.shrunk = append(out.shrunk, sr)
		}
		return out, nil
	}
	in.verify = func(res any, it iterStats, c *checker) string {
		r := res.(*fuzzResult)
		f := r.fuzz
		c.ok(f.Steps >= budget, "fuzzer stopped at %d steps, under its budget of %d", f.Steps, budget)
		c.ok(len(f.Violations) > 0, "fuzzer found no violation of S6")
		c.eq("steps", f.Steps, pinSteps)
		c.eq("schedules", f.Schedules, pinSchedules)
		c.eq("violations", len(f.Violations), pinViolations)
		var tests, steps, original float64
		parts := []any{f.Steps, f.Schedules, f.CoverageDigest}
		for i, sr := range r.shrunk {
			v := f.Violations[i]
			c.eq("violated property", v.Property, "PacketService_OK")
			// The shrunk trace must still reach the same violation on a
			// fresh world, replayed by the checker and not the shrinker.
			_, reached := fuzz.AnchoredReplay(s.World, s.Props, v.Property, v.Desc, sr.Path)
			c.ok(reached && sr.Steps <= sr.OriginalSteps, "shrunk trace %d (%d of %d steps) lost its violation", i, sr.Steps, sr.OriginalSteps)
			tests += float64(sr.Tests)
			steps += float64(sr.Steps)
			original += float64(sr.OriginalSteps)
			parts = append(parts, sr.Digest)
		}
		c.counts.set("fuzz.schedules", float64(f.Schedules))
		c.counts.set("fuzz.steps", float64(f.Steps))
		c.counts.set("fuzz.steps_per_s", float64(f.Steps)/it.wall)
		c.counts.set("fuzz.kept_share", float64(f.NewCoverageInputs)/float64(f.Schedules))
		c.counts.set("fuzz.shrink_tests", tests)
		c.counts.set("fuzz.shrink_ratio", steps/original)
		return digestOf(parts...)
	}
	return in, nil
}

// ---- campaign-1m ----

// table5 is the paper's Table 5 occurrence rate per finding. The
// campaign's 95% Wilson interval must contain it within table5Slack:
// EXPERIMENTS.md documents estimates "inside (or within a hair of)" the
// paper's point rates, the widest hair being S2 (paper ≈0, campaign
// 0.16% with a lower bound of 0.08%).
var table5 = map[string]float64{"S1": 0.031, "S2": 0, "S3": 0.621, "S4": 0.076, "S5": 0.774, "S6": 0.026}

const table5Slack = 0.01

func campaignRenderings(r *campaign.Report) string { return r.JSON() + r.Table() + r.CSV() }

func setupCampaign(short bool, seed int64, c *checker) (*instance, error) {
	ues, pinProcs := 1000000, int64(8214786)
	if short {
		ues, pinProcs = 20000, 163981
	}
	cfg := func(n, workers int) campaign.Config {
		return campaign.Config{UEs: n, Horizon: time.Hour, Workers: workers, Seed: seed}
	}
	// Checked once: the report does not depend on the worker count.
	var renderings [2]string
	for i := range renderings {
		r, err := campaign.Run(cfg(ues/10, i+1))
		if err != nil {
			return nil, err
		}
		renderings[i] = campaignRenderings(r)
	}
	c.ok(renderings[0] == renderings[1], "campaign renderings differ between 1 and 2 workers")

	// The campaign has no model world; the probes use S1's.
	in := &instance{probe: core.S1World(false)}
	in.run = func(tr *tracer) (any, error) {
		end := tr.begin("campaign", "campaign.Run")
		r, err := campaign.Run(cfg(ues, 1))
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("campaign", "campaign.render")
		text := campaignRenderings(r)
		end()
		return &campaignResult{report: r, rendered: text}, nil
	}
	in.verify = func(res any, it iterStats, c *checker) string {
		r := res.(*campaignResult)
		t := r.report.Totals
		procs := t.Attaches + t.Detaches + t.Services + t.Handovers + t.Calls
		if seed == defaultSeed { // the one answer that holds at the default seed only
			c.eq("procedures", procs, pinProcs)
		}
		c.eq("occurrence rows", len(r.report.Occurrences), len(table5))
		for _, o := range r.report.Occurrences {
			paper := table5[o.Finding]
			c.ok(short || (o.CILow-table5Slack <= paper && paper <= o.CIHigh+table5Slack),
				"%s: paper rate %.3f outside the campaign's interval [%.4f, %.4f] ± %.2f", o.Finding, paper, o.CILow, o.CIHigh, table5Slack)
			c.ok(o.Events <= o.Exposure && o.CILow <= o.Rate && o.Rate <= o.CIHigh, "%s: malformed occurrence row %+v", o.Finding, o)
		}
		c.counts.set("campaign.procs", float64(procs))
		c.counts.set("campaign.procs_per_s", float64(procs)/it.wall)
		c.counts.set("campaign.alloc_b_per_ue", it.allocB/float64(ues))
		return digestOf(r.rendered)
	}
	in.extras = func(m metrics) error {
		run := func(workers int) func(*tracer) (any, error) {
			return func(*tracer) (any, error) { return campaign.Run(cfg(ues, workers)) }
		}
		one, two, _, err := sideBySide(run(1), run(2))
		if err != nil {
			return err
		}
		m.set("campaign.w2_speedup", one.wall/two.wall)
		return nil
	}
	return in, nil
}

type campaignResult struct {
	report   *campaign.Report
	rendered string
}

// ---- sweep-loss ----

func setupSweep(short bool, seed int64, c *checker) (*instance, error) {
	seeds := 32
	if short {
		seeds = 1
	}
	// Screening the targets is set-up: the sweep replays, it does not screen.
	targets, err := validate.SweepTargets(nil, 1, 0)
	if err != nil {
		return nil, err
	}
	c.eq("sweep targets", len(targets), 6)
	cfg := func(seeds, workers int) validate.SweepConfig {
		return validate.SweepConfig{Targets: targets, Seeds: seeds, Workers: workers, Seed: seed}
	}
	// Checked once, on a grid an eighth the size: the result does not
	// depend on the worker count.
	var renderings [2]string
	for i := range renderings {
		r, err := validate.Sweep(cfg((seeds+7)/8, i+1))
		if err != nil {
			return nil, err
		}
		js, err := r.JSON()
		if err != nil {
			return nil, err
		}
		renderings[i] = string(js) + r.CSV() + r.Table()
	}
	c.ok(renderings[0] == renderings[1], "sweep renderings differ between 1 and 2 workers")

	in := &instance{probe: targets[0].Scoped}
	in.run = func(tr *tracer) (any, error) {
		end := tr.begin("validate", "validate.Sweep")
		r, err := validate.Sweep(cfg(seeds, 1))
		end()
		return r, err
	}
	in.verify = func(res any, it iterStats, c *checker) string {
		r := res.(*validate.SweepResult)
		c.eq("cells", len(r.Cells), 36)
		c.ok(!r.Truncated, "sweep truncated")
		var runs, aborted, reproduced int
		lossless := map[string]int{}
		for _, cell := range r.Cells {
			c.ok(cell.Runs == seeds && cell.Reproduced+cell.Aborted+cell.Satisfied == cell.Runs,
				"%s @ loss %.1f: %d runs split %d/%d/%d", cell.Finding, cell.Loss, cell.Runs, cell.Reproduced, cell.Aborted, cell.Satisfied)
			if cell.Loss == 0 {
				// Without loss every seed replays the same lossless run.
				c.ok(cell.Aborted == 0 && (cell.Reproduced == 0 || cell.Reproduced == cell.Runs),
					"%s: lossless trials disagree (%d of %d reproduced, %d aborted)", cell.Finding, cell.Reproduced, cell.Runs, cell.Aborted)
				if cell.Reproduced > 0 {
					lossless[cell.Finding]++
				}
			}
			runs += cell.Runs
			aborted += cell.Aborted
			reproduced += cell.Reproduced
		}
		// EXPERIMENTS.md loss-sweep table, loss 0: every target reproduces
		// except S2's, whose lost-TAU race retransmission defeats.
		c.eq("lossless targets reproduced", lossless["S1"]+lossless["S3"]+lossless["S4"]+lossless["S6"], 5)
		c.eq("lossless S2 reproduced", lossless["S2"], 0)
		c.counts.set("validate.replays", float64(runs))
		c.counts.set("netemu.retained_kb_per_replay", it.retained/1024/float64(runs))
		c.counts.set("validate.reproduced_share", float64(reproduced)/float64(runs))
		c.counts.set("netemu.abort_share", float64(aborted)/float64(runs))
		js, err := r.JSON()
		if err != nil {
			c.fail(err)
		}
		return digestOf(string(js))
	}
	return in, nil
}
