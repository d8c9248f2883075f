package fuzz

import (
	"fmt"
	"math/rand"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
	"cnetverifier/internal/stats"
)

// Schedule is one fuzzing input: an ordered list of environment events
// to inject, plus the seed that resolves the remaining nondeterminism
// (which enabled transition branch fires on injection, and which queued
// message is processed at each drain step). The events are the genome
// the mutators edit; perturbing only the seed re-executes the same user
// story under a different signaling interleaving — the Kairos-style
// timing dimension.
type Schedule struct {
	Seed   int64
	Events []model.EnvEvent
	// Stretches rescale armed timer windows on the initial world before
	// injection starts — the fuzzer's time-axis mutation. They apply to
	// scratch executions only; resumed candidates inherit the parent's
	// already-stretched snapshot (extend-mutants copy the parent's
	// stretches so the genome stays faithful).
	Stretches []TimerStretch
}

// TimerStretch rescales one timer's [earliest, latest] expiry window by
// percentage factors (100 = unchanged): halving Lo lets an expiry race
// ahead of deliveries it previously had to wait for, doubling Hi lets
// deliveries overtake an expiry — exactly the admissible-ordering edges
// timed screening explores, steered per input.
type TimerStretch struct {
	Proc, Name   string
	LoPct, HiPct int
}

// clone deep-copies the schedule so mutators never alias corpus
// entries.
func (s Schedule) clone() Schedule {
	return Schedule{
		Seed:      s.Seed,
		Events:    append([]model.EnvEvent(nil), s.Events...),
		Stretches: append([]TimerStretch(nil), s.Stretches...),
	}
}

// genomeHash fingerprints the full genome (seed and events) with
// FNV-64a; two schedules with equal hashes execute identically, so the
// fuzzer's dedup uses it to avoid re-walking known paths.
func (s Schedule) genomeHash() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime64
		}
	}
	str := func(v string) {
		for _, b := range []byte(v) {
			h ^= uint64(b)
			h *= prime64
		}
		h *= prime64 // NUL terminator: "ab"+"c" never collides with "a"+"bc"
	}
	mix(uint64(s.Seed))
	for _, e := range s.Events {
		str(e.Proc)
		str(e.Msg.From) // timer-expiry directives differ by timer name
		mix(uint64(e.Msg.Kind)<<32 | uint64(e.Msg.Cause))
	}
	for _, t := range s.Stretches {
		str(t.Proc)
		str(t.Name)
		mix(uint64(uint32(t.LoPct))<<32 | uint64(uint32(t.HiPct)))
	}
	return h
}

// entry is a kept corpus input: its genome, the world state its
// execution ended in (the snapshot), and the concrete step path from
// the initial world that reached it. Extend-mutants resume from the
// snapshot and are charged only for their tail steps — re-walking the
// parent's prefix would burn exploration budget on known coverage
// (the retrace tax that makes naive schedule fuzzing lose to uniform
// sampling under a step budget).
type entry struct {
	sched Schedule
	end   *model.World
	path  []model.Step
}

// candidate is one input scheduled for execution: either a scratch
// schedule (parent < 0) executed from the initial world, or a resumed
// one executed from corpus[parent]'s snapshot with only tail injected.
type candidate struct {
	sched  Schedule
	parent int
	tail   []model.EnvEvent
}

// executor is one worker's state for a whole Fuzz / RandomBaseline
// call: a world refreshed with CloneInto per schedule (the PR-4 pooling
// discipline), the execution RNG reseeded per schedule, step and path
// buffers, and the coverage scratch a run records into, so executing
// thousands of schedules keeps one allocation footprint.
type executor struct {
	w     model.World
	rng   *rand.Rand
	cov   *Coverage
	seen  map[string]struct{}
	steps []model.Step
	path  []model.Step
}

func newExecutor(w0 *model.World) *executor {
	return &executor{rng: stats.NewRand(0), cov: NewCoverage(w0), seen: make(map[string]struct{})}
}

// execResult is the outcome of executing one schedule.
type execResult struct {
	// steps counts applied world transitions (the budget unit).
	steps int
	// cov covers the transitions this run itself applied (merged by the
	// caller in candidate order, so parallel execution stays
	// deterministic). Resumed runs cover only their tail: the prefix was
	// already merged when the parent entered the corpus. It is nil when
	// the run lit up nothing the round-start coverage lacked: merging it
	// into that coverage, or any superset, would report no new bit.
	cov *Coverage
	// violations holds one entry per distinct (property, description)
	// pair reached by this run, each with a concrete replayable path
	// from the initial world.
	violations []check.Violation
	// end and path snapshot the final world and full concrete path so
	// the input can enter the corpus (cloned — the executor's own
	// buffers are reused for the next run). Like cov, they are taken only
	// when the run has coverage the round start lacks: no other run can
	// enter the corpus.
	end  *model.World
	path []model.Step
}

// run executes one candidate. A scratch candidate starts from w0 and
// injects its whole schedule; a resumed one starts from its parent's
// snapshot and injects only the tail. Execution alternates injection
// and drain: each event is injected if any transition accepts it
// (silently skipped otherwise — mutators are allowed to produce dead
// events), then up to opt.Drain queued messages are processed, the
// seed's RNG picking among the enabled delivery/drop branches.
// Properties are checked after every applied step; a violating step
// captures the full path from w0 as a counterexample. roundCov is the
// coverage merged before this round, read-only while the round runs.
func (x *executor) run(w0 *model.World, corpus []entry, c candidate, props []check.Property, opt Options, roundCov *Coverage) (execResult, error) {
	w := &x.w
	events := c.sched.Events
	var base []model.Step
	if c.parent >= 0 {
		corpus[c.parent].end.CloneInto(w)
		base = corpus[c.parent].path
		events = c.tail
	} else {
		w0.CloneInto(w)
		// Time-axis mutations: rescale timer windows before any step
		// fires. Resumed candidates skip this — the parent's snapshot
		// already carries its stretched timing configuration.
		for _, t := range c.sched.Stretches {
			w.ScaleTimerBounds(t.Proc, t.Name, t.LoPct, t.HiPct)
		}
	}
	rng := x.rng
	rng.Seed(c.sched.Seed)
	x.cov.reset()
	clear(x.seen)
	x.path = x.path[:0]
	var res execResult

	apply := func(s model.Step) error {
		applied, err := w.Apply(s)
		if err != nil {
			return fmt.Errorf("fuzz: apply %v: %w", s, err)
		}
		res.steps++
		x.cov.Note(w, applied)
		x.path = append(x.path, applied)
		for _, p := range props {
			desc := p.Check(w, applied)
			if desc == "" {
				continue
			}
			key := p.Name() + "\x00" + desc
			if _, dup := x.seen[key]; dup {
				continue
			}
			x.seen[key] = struct{}{}
			res.violations = append(res.violations, check.Violation{
				Property: p.Name(),
				Desc:     desc,
				Path:     clonePath(base, x.path),
			})
		}
		return nil
	}

	drain := func() error {
		for d := 0; d < opt.Drain; d++ {
			// Timer expiries drain alongside queued messages: on a timed
			// world the seed's RNG interleaves admissible expiries with
			// deliveries (on an untimed world StepsTimerAppend is a
			// no-op, so untimed runs are byte-for-byte unchanged).
			x.steps = w.StepsQueueAppend(x.steps[:0])
			x.steps = w.StepsTimerAppend(x.steps)
			if len(x.steps) == 0 {
				return nil
			}
			if err := apply(x.steps[rng.Intn(len(x.steps))]); err != nil {
				return err
			}
		}
		return nil
	}

	for _, e := range events {
		if e.Msg.From != "" {
			// Timer-expiry directive (From names the timer): fire that
			// process's armed timer now if it is admissible, silently
			// skipped otherwise — the event-axis handle on timing.
			x.steps = w.StepsTimerAppend(x.steps[:0])
			n := 0
			for _, s := range x.steps {
				if s.Proc == e.Proc && s.Msg.From == e.Msg.From {
					x.steps[n] = s
					n++
				}
			}
			x.steps = x.steps[:n]
		} else {
			x.steps = w.StepsEnvAppend(x.steps[:0], []model.EnvEvent{e})
		}
		if len(x.steps) > 0 {
			if err := apply(x.steps[rng.Intn(len(x.steps))]); err != nil {
				return res, err
			}
		}
		if err := drain(); err != nil {
			return res, err
		}
	}
	// Final drain so trailing sends are not left unexplored.
	if err := drain(); err != nil {
		return res, err
	}
	if x.cov.hasNew(roundCov) {
		res.cov, x.cov = x.cov, NewCoverage(w0) // hand the scratch over
		res.end = w.Clone()
		res.path = append(append(make([]model.Step, 0, len(base)+len(x.path)), base...), x.path...)
	}
	return res, nil
}

// clonePath deep-copies the counterexample path base+tail, including
// each step's Notes slice: a captured violation must own its path
// outright, since the executor keeps extending and recycling the
// buffers it was built from.
func clonePath(base, tail []model.Step) []model.Step {
	out := append(append(make([]model.Step, 0, len(base)+len(tail)), base...), tail...)
	for i := range out {
		if out[i].Notes != nil {
			out[i].Notes = append([]string(nil), out[i].Notes...)
		}
	}
	return out
}
