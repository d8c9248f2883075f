package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
	"cnetverifier/internal/scenario"
	"cnetverifier/internal/stats"
)

// Options configures a fuzzing run.
type Options struct {
	// Budget bounds the total number of applied world transitions
	// across all executed schedules (default 50000). The budget is
	// checked between rounds, so a run may overshoot by at most one
	// round — deterministically.
	Budget int
	// Workers sets the number of executor goroutines (default 1).
	// Any worker count produces the identical result: candidates are
	// generated deterministically per round, executed slot-indexed, and
	// merged in candidate order — the validate.Sweep discipline.
	Workers int
	// Seed is the run seed; every candidate's mutation RNG and
	// execution seed derive from it (default 1).
	Seed int64
	// MaxEvents bounds the schedule length in environment events
	// (default 12).
	MaxEvents int
	// Drain bounds the queued messages processed after each injection
	// (default 8).
	Drain int
	// RoundSize is the number of candidate schedules per round
	// (default 32).
	RoundSize int
	// Pool is the event pool the mutators substitute and insert from;
	// nil defaults to the full §3.2.1 space (scenario.FullSpace).
	Pool []model.EnvEvent
	// TimerPool holds timer-expiry directives (EnvEvents whose Msg.From
	// names an armed timer, from World.TimerEvents) for the timing
	// mutators. Empty on untimed worlds, which keeps every untimed run
	// bit-identical to the pre-timing fuzzer.
	TimerPool []model.EnvEvent
	// Corpus seeds the run with previously kept schedules (e.g. loaded
	// from a -corpus directory); they execute as round 0 alongside the
	// per-event singletons.
	Corpus []Schedule
	// StopAtFirst stops the run at the end of the first round that
	// found any violation.
	StopAtFirst bool
}

func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = 50000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 12
	}
	if o.Drain == 0 {
		o.Drain = 8
	}
	if o.RoundSize == 0 {
		o.RoundSize = 32
	}
	if o.Pool == nil {
		space := scenario.FullSpace()
		for _, e := range space.Events(nil) {
			o.Pool = append(o.Pool, e.EnvEvent)
		}
	}
	return o
}

// Result summarizes a fuzzing run.
type Result struct {
	// Schedules and Steps count executed inputs and applied world
	// transitions; Rounds counts candidate generations.
	Schedules int `json:"schedules"`
	Steps     int `json:"steps"`
	Rounds    int `json:"rounds"`
	// NewCoverageInputs counts the inputs kept for lighting up new
	// coverage; Corpus holds them (seed corpus entries included when
	// they covered something new).
	NewCoverageInputs int        `json:"new_coverage_inputs"`
	Corpus            []Schedule `json:"-"`
	// Violations holds the distinct (property, description) pairs
	// reached, in canonical order, each with a concrete replayable
	// counterexample re-verified with check.Replay.
	Violations []check.Violation `json:"-"`
	// Coverage is the merged coverage map; CoverageDigest its stable
	// fingerprint.
	Coverage       *Coverage `json:"-"`
	CoverageDigest string    `json:"coverage_digest"`
	// TransitionsFired/Total and PairsCovered materialize the coverage
	// counters for reports.
	TransitionsFired int `json:"transitions_fired"`
	TransitionsTotal int `json:"transitions_total"`
	PairsCovered     int `json:"pairs_covered"`
}

// ErrNoLiveEvent reports a world on which no schedule can apply a step:
// no pool event is enabled at the initial world and nothing is queued or
// armed there, so a run could never spend its step budget.
var ErrNoLiveEvent = errors.New("fuzz: no pool event is enabled at the initial world, so no schedule can apply a step")

// session is what one Fuzz or RandomBaseline call keeps across its
// rounds: one executor per worker, the mutation RNG (reseeded per
// candidate), the result being merged, and one counterexample per
// (property, description) pair.
type session struct {
	w0    *model.World
	props []check.Property
	opt   Options
	xs    []*executor
	mut   *rand.Rand
	res   *Result
	// violations holds, per pair, the counterexample DedupeViolations
	// would keep of all those merged so far — the shortest path, then the
	// smaller rendered path, the earlier on a tie; byKey indexes it.
	violations []check.Violation
	byKey      map[string]int
}

func newSession(w0 *model.World, props []check.Property, opt Options) (*session, error) {
	opt = opt.withDefaults()
	if len(opt.Pool) == 0 {
		return nil, fmt.Errorf("fuzz: empty event pool")
	}
	s := &session{
		w0: w0, props: props, opt: opt,
		mut:   stats.NewRand(0),
		res:   &Result{Coverage: NewCoverage(w0)},
		byKey: make(map[string]int),
	}
	for range opt.Workers {
		s.xs = append(s.xs, newExecutor(w0))
	}
	return s, nil
}

// rng reseeds the mutation RNG for candidate idx of the round, so the
// candidate is the same whatever was drawn before it.
func (s *session) rng(round, idx int) *rand.Rand {
	s.mut.Seed(mutSeed(s.opt.Seed, round, idx))
	return s.mut
}

// Fuzz runs the coverage-guided loop over the world: seed the corpus,
// then mutate–execute–keep rounds until the step budget is spent.
//
// Determinism contract (asserted by TestFuzzDeterminism): the result —
// coverage digest, kept-input set, violation set — is a pure function
// of (world, props, Options minus Workers). Candidates are derived from
// (Seed, round, index) alone, rounds are merged sequentially in
// candidate order, and the corpus snapshot mutators see is the one from
// the round start, so worker scheduling never influences anything.
func Fuzz(w0 *model.World, props []check.Property, opt Options) (*Result, error) {
	s, err := newSession(w0, props, opt)
	if err != nil {
		return nil, err
	}
	opt, res := s.opt, s.res
	var corpus []entry

	// Round 0: the seed corpus — caller-provided schedules, one
	// singleton per pool event (every scenario family is exercised
	// before mutation starts), and one round of fresh random schedules
	// so mutation starts from deep parents, not only singletons.
	seeds := make([]candidate, 0, len(opt.Corpus)+len(opt.Pool)+len(opt.TimerPool)+opt.RoundSize)
	for _, sc := range opt.Corpus {
		seeds = append(seeds, candidate{sched: sc.clone(), parent: -1})
	}
	for i, e := range append(append([]model.EnvEvent(nil), opt.Pool...), opt.TimerPool...) {
		seeds = append(seeds, candidate{
			sched:  Schedule{Seed: mutSeed(opt.Seed, 0, len(opt.Corpus)+i), Events: []model.EnvEvent{e}},
			parent: -1,
		})
	}
	for i := 0; i < opt.RoundSize; i++ {
		seeds = append(seeds, candidate{sched: freshSchedule(opt.Pool, opt.MaxEvents, s.rng(0, len(seeds)+i)), parent: -1})
	}

	// ran tracks executed genomes: a mutant identical to an already
	// executed schedule (a no-op mutation over an inherited seed) would
	// re-walk a known path step for step — resample instead of wasting
	// budget on it.
	ran := make(map[uint64]struct{})
	note := func(sc Schedule) bool {
		h := sc.genomeHash()
		if _, dup := ran[h]; dup {
			return false
		}
		ran[h] = struct{}{}
		return true
	}

	// Exploration is adaptive (epsilon-greedy over candidate origin):
	// each round tracks how many new coverage bits per executed step
	// fresh random schedules earned versus corpus mutants, and the next
	// round draws fresh candidates with probability proportional to the
	// fresh yield. Early on fresh sampling wins (everything is new) and
	// the fuzzer behaves like the uniform baseline; once breadth dries
	// up the mutants' retrace-then-extend depth takes over.
	const epsMin, epsMax = 0.125, 0.875
	eps := epsMax
	var bits, steps [2]int // cumulative per class: 0 = mutant, 1 = fresh
	runRound := func(cands []candidate, fresh []bool) error {
		results, err := s.execute(corpus, cands)
		if err != nil {
			return err
		}
		for i, r := range results {
			class := 0
			if fresh == nil || fresh[i] {
				class = 1
			}
			steps[class] += r.steps
			if neu := s.merge(r); neu > 0 {
				corpus = append(corpus, entry{sched: cands[i].sched, end: r.end, path: r.path})
				res.NewCoverageInputs++
				bits[class] += neu
			}
		}
		mutYield, freshYield := yield(bits[0], steps[0]), yield(bits[1], steps[1])
		if mutYield+freshYield > 0 {
			eps = freshYield / (mutYield + freshYield)
			if eps < epsMin {
				eps = epsMin
			} else if eps > epsMax {
				eps = epsMax
			}
		}
		return nil
	}

	for _, c := range seeds {
		note(c.sched)
	}
	if err := runRound(seeds, nil); err != nil {
		return nil, err
	}
	// Round 0 injected every pool and timer event at the initial world.
	// If none applied, no later round can: with nothing kept, every
	// candidate is a fresh schedule from the same pool at the same world.
	if res.Steps == 0 {
		return nil, ErrNoLiveEvent
	}
	for round := 1; res.Steps < opt.Budget; round++ {
		if opt.StopAtFirst && len(s.violations) > 0 {
			break
		}
		cands := make([]candidate, opt.RoundSize)
		fresh := make([]bool, opt.RoundSize)
		for i := range cands {
			rng := s.rng(round, i)
			gen := func() candidate {
				if fresh[i] = len(corpus) == 0 || rng.Float64() < eps; fresh[i] {
					return candidate{sched: freshSchedule(opt.Pool, opt.MaxEvents, rng), parent: -1}
				}
				return mutate(corpus, opt.Pool, opt.TimerPool, opt.MaxEvents, rng)
			}
			cands[i] = gen()
			for try := 0; try < 8 && !note(cands[i].sched); try++ {
				cands[i] = gen()
			}
		}
		if err := runRound(cands, fresh); err != nil {
			return nil, err
		}
	}

	res.Corpus = make([]Schedule, len(corpus))
	for i, e := range corpus {
		res.Corpus[i] = e.sched
	}
	return s.finish()
}

// yield is new coverage bits per executed step — the signal the
// adaptive exploration rate follows.
func yield(bits, steps int) float64 {
	if steps == 0 {
		return 0
	}
	return float64(bits) / float64(steps)
}

// RandomBaseline samples uniformly random schedules (no feedback, no
// corpus) under the same budget accounting — the control arm for the
// coverage comparison in cnetfuzz -cov-report and EXPERIMENTS.md.
func RandomBaseline(w0 *model.World, props []check.Property, opt Options) (*Result, error) {
	s, err := newSession(w0, props, opt)
	if err != nil {
		return nil, err
	}
	opt = s.opt
	// Every schedule is drawn from the pool and starts at the initial
	// world: if nothing is enabled there, none can apply a step.
	if len(w0.Clone().StepsAppend(nil, opt.Pool)) == 0 {
		return nil, ErrNoLiveEvent
	}
	for round := 0; s.res.Steps < opt.Budget; round++ {
		cands := make([]candidate, opt.RoundSize)
		for i := range cands {
			cands[i] = candidate{sched: freshSchedule(opt.Pool, opt.MaxEvents, s.rng(round, i)), parent: -1}
		}
		results, err := s.execute(nil, cands)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			s.merge(r)
		}
	}
	return s.finish()
}

// execute runs one round's candidates across the executors with an
// atomic job cursor and slot-indexed results. Results are positionally
// stable, so the sequential merge that follows is order-deterministic.
func (s *session) execute(corpus []entry, cands []candidate) ([]execResult, error) {
	s.res.Rounds++
	results := make([]execResult, len(cands))
	errs := make([]error, len(cands))
	xs := s.xs[:min(len(s.xs), len(cands))]
	if len(xs) <= 1 {
		for i, c := range cands {
			var err error
			if results[i], err = xs[0].run(s.w0, corpus, c, s.props, s.opt, s.res.Coverage); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				results[i], errs[i] = x.run(s.w0, corpus, cands[i], s.props, s.opt, s.res.Coverage)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// merge folds one result into the run — accounting, counterexamples,
// coverage — returning how many coverage bits it newly set.
func (s *session) merge(r execResult) int {
	s.res.Schedules++
	s.res.Steps += r.steps
	for _, v := range r.violations {
		key := v.Property + "\x00" + v.Desc
		if i, ok := s.byKey[key]; !ok {
			s.byKey[key] = len(s.violations)
			s.violations = append(s.violations, v)
		} else if check.PathLess(v.Path, s.violations[i].Path) {
			s.violations[i] = v
		}
	}
	if r.cov == nil {
		return 0
	}
	return s.res.Coverage.Merge(r.cov)
}

// finish puts the kept counterexamples in canonical order, re-verifies
// each by replay, and materializes the coverage counters.
func (s *session) finish() (*Result, error) {
	res := s.res
	check.SortViolations(s.violations)
	res.Violations = s.violations
	if err := check.Reverify(s.w0, s.props, res.Violations); err != nil {
		return nil, err
	}
	res.CoverageDigest = res.Coverage.Digest()
	res.TransitionsFired, res.TransitionsTotal = res.Coverage.Transitions()
	res.PairsCovered = res.Coverage.Pairs()
	return res, nil
}
