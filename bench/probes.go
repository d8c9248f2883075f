package main

import (
	"fmt"
	"math/rand"
	"time"

	"cnetverifier/internal/campaign"
	"cnetverifier/internal/core"
	"cnetverifier/internal/lint"
	"cnetverifier/internal/lint/effects"
	"cnetverifier/internal/model"
	"cnetverifier/internal/netemu"
)

// Layer probes: each times one public function of one layer over fixed
// inputs, in batches, from outside the layer. They run at the end of
// every trace pass.

// Probe sizes; a smoke run shrinks them (smokeProbes).
var (
	// corpusExplore bounds the driver's own BFS; corpusSize states are
	// then sampled from what it reached.
	corpusExplore = 16384
	corpusSize    = 4096
	// probeBudget is how long one probe keeps repeating its batch (three
	// batches at least); the reported cost is the median batch.
	probeBudget = 250 * time.Millisecond
)

const simTimers = 1024

func smokeProbes() { corpusExplore, corpusSize, probeBudget = 2048, 512, 0 }

// corpus is a sample of reachable states of one world, each with its
// enabled steps and one applied successor for the property monitors.
type corpus struct {
	scoped core.Scoped
	states []*model.World
	steps  [][]model.Step
	// succ[i] is states[i] after applying last[i], one of its steps.
	succ []*model.World
	last []model.Step
}

// buildCorpus explores the world breadth-first with the model's public
// Clone/ApplyUndo/AppendHash (no checker involved) until corpusExplore
// states are known, then samples corpusSize of them by seed.
func buildCorpus(s core.Scoped, seed int64) (*corpus, error) {
	seen := map[uint64]bool{}
	var buf []byte
	h, buf := s.World.AppendHash(buf)
	seen[h] = true
	queue := []*model.World{s.World.Clone()}
	var u model.Undo
	var steps []model.Step
	for head := 0; head < len(queue) && len(queue) < corpusExplore; head++ {
		w := queue[head]
		steps = w.StepsAppend(steps[:0], s.Scenario.Events(w))
		for _, st := range steps {
			if _, err := w.ApplyUndo(st, &u); err != nil {
				return nil, fmt.Errorf("corpus: applying %v: %w", st, err)
			}
			h, buf = w.AppendHash(buf)
			if !seen[h] {
				seen[h] = true
				queue = append(queue, w.Clone())
			}
			w.Restore(&u)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{scoped: s}
	for _, i := range rng.Perm(len(queue)) {
		if len(c.states) == corpusSize {
			break
		}
		w := queue[i]
		enabled := w.Steps(s.Scenario.Events(w))
		if len(enabled) == 0 {
			continue
		}
		next := w.Clone()
		applied, err := next.Apply(enabled[rng.Intn(len(enabled))])
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		c.states = append(c.states, w)
		c.steps = append(c.steps, enabled)
		c.succ = append(c.succ, next)
		c.last = append(c.last, applied)
	}
	if len(c.states) == 0 {
		return nil, fmt.Errorf("corpus: no state of the %s world has an enabled step", s.Finding)
	}
	return c, nil
}

// perOp repeats batch for probeBudget and returns the median batch time
// in nanoseconds divided by ops.
func perOp(ops int, batch func()) float64 { return perOpPrepared(ops, func() {}, batch) }

// perOpPrepared is perOp with an untimed step before every batch.
func perOpPrepared(ops int, prepare, batch func()) float64 {
	var ns []float64
	for start := time.Now(); len(ns) < 3 || time.Since(start) < probeBudget; {
		prepare()
		t0 := time.Now()
		batch()
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns) / float64(ops)
}

// sink keeps the compiler from dropping a probe's result.
var sink uint64

// probeModel times the model's public operations the way the checker
// uses them: on one working world that stays in cache, loaded with each
// corpus state in turn. (Timing them on the 4,096 corpus worlds directly
// reads 2-4x higher, each world and its scratch buffers being cold.)
func probeModel(c *corpus, m metrics) error {
	n := len(c.states)
	sc := c.scoped.Scenario
	cur := &model.World{}
	var buf []byte
	var steps []model.Step
	var u model.Undo
	var failed error

	total, timers := 0, 0
	for _, enabled := range c.steps {
		total += len(enabled)
		for _, st := range enabled {
			if st.Kind == model.StepTimer {
				timers++
			}
		}
	}
	m.set("model.steps_per_state", float64(total)/float64(n))
	m.set("model.timer_step_share", float64(timers)/float64(total))

	m.set("model.clone_ns", perOp(n, func() {
		for _, w := range c.states {
			w.CloneInto(cur)
		}
	}))
	// loaded times op alone, once per state loaded into the working
	// world, and returns the median batch's cost per op call. The clock
	// reads around each op are measured with an empty op and taken off.
	clock := 0.0
	loaded := func(from []*model.World, calls int, op func(i int)) float64 {
		var batches []float64
		for start := time.Now(); len(batches) < 3 || time.Since(start) < probeBudget; {
			var ns time.Duration
			for i, w := range from {
				w.CloneInto(cur)
				t0 := time.Now()
				op(i)
				ns += time.Since(t0)
			}
			batches = append(batches, float64(ns))
		}
		return (median(batches) - clock*float64(len(from))) / float64(calls)
	}
	clock = loaded(c.states, n, func(int) {})
	m.set("model.steps_ns", loaded(c.states, n, func(int) {
		steps = cur.StepsAppend(steps[:0], sc.Events(cur))
	}))
	m.set("model.apply_undo_ns", loaded(c.states, total, func(i int) {
		for _, st := range c.steps[i] {
			if _, err := cur.ApplyUndo(st, &u); err != nil {
				failed = err
			}
			cur.Restore(&u)
		}
	}))
	if failed != nil {
		return fmt.Errorf("probe model.apply_undo_ns: %w", failed)
	}
	m.set("model.hash_plain_ns", loaded(c.states, n, func(int) {
		var h uint64
		h, buf = cur.AppendHash(buf)
		sink += h
	}))
	m.set("model.hash_canon_ns", loaded(c.states, n, func(int) {
		var h uint64
		h, buf = cur.AppendCanonicalHash(buf)
		sink += h
	}))
	m.set("props.check_ns", loaded(c.succ, n, func(i int) {
		for _, p := range c.scoped.Props {
			sink += uint64(len(p.Check(cur, c.last[i])))
		}
	}))
	bytes := 0
	for _, w := range c.states {
		bytes += len(w.Encode(buf[:0]))
	}
	m.set("model.enc_bytes", float64(bytes)/float64(n))
	return nil
}

func probeLint(s core.Scoped, m metrics) {
	opt := lint.Options{Suppress: s.Options.LintSuppress}
	m.set("lint.world_ns", perOp(1, func() { sink += uint64(len(core.LintWorld(s, opt).Findings)) }))
	m.set("effects.analyze_ns", perOp(1, func() { sink += uint64(len(effects.Analyze(s.World).Procs)) }))
}

func probeSim(m metrics) {
	fired := 0
	fire := func() { fired++ }
	m.set("netemu.sim_event_ns", perOp(simTimers, func() {
		sim := netemu.NewSim(1)
		for i := 0; i < simTimers; i++ {
			sim.AfterTimer(time.Duration(i%97)*time.Millisecond, fire)
		}
		sim.Run()
	}))
	timers := make([]*netemu.Timer, simTimers)
	arm := func() {
		sim := netemu.NewSim(1)
		for i := range timers {
			timers[i] = sim.AfterTimer(time.Duration(i%97)*time.Millisecond, fire)
		}
	}
	m.set("netemu.sim_cancel_ns", perOpPrepared(simTimers, arm, func() {
		for _, t := range timers {
			t.Cancel()
		}
	}))
	sink += uint64(fired)
}

func probeDist(seed int64, m metrics) {
	a := campaign.DefaultArrivals()
	dists := []campaign.Dist{a.Attach, a.Detach, a.Service, a.Handover, a.Call}
	rng := rand.New(rand.NewSource(seed))
	const rounds = 2000
	acc := 0.0
	m.set("campaign.dist_sample_ns", perOp(rounds*len(dists), func() {
		for i := 0; i < rounds; i++ {
			for _, d := range dists {
				acc += d.Sample(rng)
			}
		}
	}))
	sink += uint64(acc)
}

// runProbes fills in every probe metric for one trace pass.
func runProbes(s core.Scoped, seed int64, m metrics) error {
	c, err := buildCorpus(s, seed)
	if err != nil {
		return err
	}
	if err := probeModel(c, m); err != nil {
		return err
	}
	probeLint(s, m)
	probeSim(m)
	probeDist(seed, m)
	return nil
}
