package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"cnetverifier/internal/check"
)

// Every workload runs in a process of its own (README, "Process
// isolation"): the parent re-executes this binary with -child and reads
// a "ready" line when set-up is done, then one JSON childResult.

const readyLine = "ready"

type childOpts struct {
	workload  string
	seed      int64
	iters     int
	short     bool
	trace     bool
	traceOut  string
	setupOnly bool
}

// childResult is what a child process reports back.
type childResult struct {
	Iters int `json:"iters"`
	// WallS and CPUS hold one sample per untraced iteration.
	WallS      []float64 `json:"wall_s"`
	CPUS       []float64 `json:"cpu_s"`
	PeakHeapMB float64   `json:"peak_heap_mb"`
	Checks     int       `json:"checks"`
	Failures   []string  `json:"failures"`
	// Layer holds the per-layer metrics of a trace pass.
	Layer    metrics `json:"layer,omitempty"`
	SpanFile string  `json:"span_file,omitempty"`
}

// iterStats are the driver's own measurements of one iteration. The
// allocation and retention figures are only taken in a trace pass, where
// a forced collection around the iteration is acceptable.
type iterStats struct {
	wall, cpu                float64
	allocB, allocs, retained float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler tracks the highest HeapSys-HeapReleased, read through
// runtime/metrics so that sampling does not stop the world.
type heapSampler struct {
	mu      sync.Mutex
	samples []rtmetrics.Sample
	peak    uint64
	stop    chan struct{}
	done    chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	for _, name := range []string{
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/heap/unused:bytes",
		"/memory/classes/heap/free:bytes",
	} {
		h.samples = append(h.samples, rtmetrics.Sample{Name: name})
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.sample()
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	rtmetrics.Read(h.samples)
	var sum uint64
	for _, s := range h.samples {
		if s.Value.Kind() == rtmetrics.KindUint64 {
			sum += s.Value.Uint64()
		}
	}
	if sum > h.peak {
		h.peak = sum
	}
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	h.sample()
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

func runChild(o childOpts) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.short {
		smokeProbes()
	}
	heap := startHeapSampler()
	c := newChecker()
	in, err := w.setup(o.short, o.seed, c)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	firstDigest := ""
	// iterate runs and verifies one iteration. Each starts from a
	// collected heap, as a fresh process would: otherwise whether the
	// previous iteration's garbage is still mapped when this one peaks is
	// a matter of collector timing, and peak heap reads 60 or 90 MB.
	iterate := func(tr *tracer, measureHeap bool) iterStats {
		var it iterStats
		var before runtime.MemStats
		runtime.GC()
		if measureHeap {
			runtime.ReadMemStats(&before)
		}
		end := tr.begin("bench", "iteration")
		cpu0, t0 := cpuSeconds(), time.Now()
		res, err := in.run(tr)
		it.wall, it.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
		end()
		heap.sample()
		if measureHeap {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			it.allocB = float64(after.TotalAlloc - before.TotalAlloc)
			it.allocs = float64(after.Mallocs - before.Mallocs)
			runtime.GC()
			runtime.ReadMemStats(&after)
			it.retained = float64(after.HeapAlloc) - float64(before.HeapAlloc)
		}
		if err != nil {
			c.fail(fmt.Errorf("iteration failed: %w", err))
			return it
		}
		digest := in.verify(res, it, c)
		if firstDigest == "" {
			firstDigest = digest
		}
		c.eq("iteration digest", digest, firstDigest)
		return it
	}

	switch {
	case o.short: // a smoke run goes straight to its one iteration
	case w.warmup:
		iterate(nil, false)
	default:
		pre, err := w.setup(true, o.seed, c)
		if err != nil {
			return fmt.Errorf("%s: preflight set-up: %w", w.name, err)
		}
		res, err := pre.run(nil)
		if err != nil {
			return fmt.Errorf("%s: preflight: %w", w.name, err)
		}
		pre.verify(res, iterStats{}, c)
	}
	fmt.Println(readyLine)
	if o.setupOnly {
		return nil
	}

	res := childResult{Iters: o.iters}
	record := func(it iterStats) {
		res.WallS = append(res.WallS, it.wall)
		res.CPUS = append(res.CPUS, it.cpu)
	}
	if !o.trace {
		for i := 0; i < o.iters; i++ {
			record(iterate(nil, false))
		}
	} else {
		tr := newTracer()
		// samples collects every per-iteration metric of the untraced
		// iterations; the pass reports their medians.
		samples := map[string][]float64{}
		var overhead []float64
		for i := 0; i < o.iters; i++ {
			// Alternate which side goes first, so that drift within the
			// process (heap growth, see README) falls on both equally.
			var traced, untraced float64
			for _, withTrace := range []bool{i%2 == 1, i%2 == 0} {
				if withTrace {
					traced = iterate(tr, true).wall
					tr.iter++
					continue
				}
				c.counts = metrics{}
				it := iterate(nil, true)
				record(it)
				untraced = it.wall
				for name, v := range c.counts {
					samples[name] = append(samples[name], v.Value)
				}
			}
			overhead = append(overhead, (traced-untraced)/untraced)
		}
		res.Layer = metrics{}
		for name, s := range samples {
			res.Layer.set(name, median(s))
		}
		res.Layer.set("trace.overhead_share", median(overhead))
		if err := tracePass(in, tr, o.seed, median(res.WallS), res.Layer); err != nil {
			return fmt.Errorf("%s: trace pass: %w", w.name, err)
		}
		if err := tr.write(o.traceOut); err != nil {
			return fmt.Errorf("%s: writing spans: %w", w.name, err)
		}
		res.SpanFile = o.traceOut
		// The two reconciliation checks: layer costs that add up to more
		// than the whole, or stages that do not add up to it, are
		// mis-measured.
		if v, ok := res.Layer["check.attributed_share"]; ok {
			c.ok(v.Value <= attributedLimit, "check.attributed_share = %.3f: the layer costs add up to more than the whole", v.Value)
		}
		if _, ok := res.Layer["pipeline.build_share"]; ok {
			sum := 0.0
			for _, stage := range pipelineStages {
				sum += res.Layer["pipeline."+stage+"_share"].Value
			}
			c.ok(sum >= 0.98 && sum <= 1.02, "pipeline stage shares sum to %.3f, want 1 ± 0.02", sum)
		}
	}
	res.PeakHeapMB = heap.finish()
	res.Checks, res.Failures = c.made, c.failures
	return json.NewEncoder(os.Stdout).Encode(res)
}

var pipelineStages = []string{"build", "lint", "screen", "shrink", "replay", "verifyfixes"}

// tracePass adds what only a trace pass measures: span-derived metrics,
// the comparator runs, the layer probes and the attribution.
func tracePass(in *instance, tr *tracer, seed int64, wall float64, m metrics) error {
	if _, n := tr.durations("pipeline.build"); n > 0 {
		// Shares are taken over all traced iterations together, so that
		// they add up; medians of per-iteration shares would not.
		iterNs, _ := tr.durations("iteration")
		for _, name := range pipelineStages {
			ns, _ := tr.durations("pipeline." + name)
			m.set("pipeline."+name+"_share", sum(ns)/sum(iterNs))
		}
	}
	perCall := func(metric, spanName string, calls float64) {
		ns, n := tr.durations(spanName)
		if n == 0 {
			return
		}
		if calls == 0 {
			calls = float64(n) / float64(len(ns))
		}
		m.set(metric, median(ns)/calls)
	}
	perCall("fuzz.shrink_ns", "fuzz.Shrink", 0)
	perCall("fuzz.shrink_ns", "pipeline.shrink", m["check.violations"].Value)
	perCall("validate.replay_ns", "validate.Replay", 0)
	perCall("validate.replay_ns", "validate.Sweep", m["validate.replays"].Value)
	perCall("campaign.render_ns", "campaign.render", 0)

	if in.extras != nil {
		if err := in.extras(m); err != nil {
			return err
		}
	}
	if err := runProbes(in.probe, seed, m); err != nil {
		return err
	}
	if in.screen {
		transitions, wallNs := m["check.transitions"].Value, wall*1e9
		attribRun := in.run
		if in.attribRun != nil { // a parallel workload is attributed on its sequential comparator
			transitions, wallNs, attribRun = in.attribTransitions, in.attribWall*1e9, in.attribRun
		}
		share := attributedShare(in, m, transitions, wallNs)
		// The probes and the run they are held against are timed seconds
		// apart, so a neighbour that is busy during one of them skews the
		// share either way. A share over the limit is timed again, run and
		// probes back to back: a mis-measurement repeats, a busy spell does
		// not.
		for retry := 0; share > attributedLimit && retry < attributedRetries; retry++ {
			t0 := time.Now()
			res, err := attribRun(nil)
			if err != nil {
				return err
			}
			wallNs = float64(time.Since(t0))
			transitions = float64(res.(*check.Result).Transitions)
			if err := runProbes(in.probe, seed, m); err != nil {
				return err
			}
			share = attributedShare(in, m, transitions, wallNs)
		}
		m.set("check.attributed_share", share)
		m.set("check.engine_self_share", 1-share)
	}
	return nil
}

// attributedLimit is the second reconciliation check: layer costs that
// add up to more than this share of the whole are mis-measured.
const (
	attributedLimit   = 1.1
	attributedRetries = 3
)

// attributedShare is the part of a screening run's wall time that the
// model's and the monitors' probed costs account for.
func attributedShare(in *instance, m metrics, transitions, wallNs float64) float64 {
	hash := m["model.hash_plain_ns"].Value
	if in.canon {
		hash = m["model.hash_canon_ns"].Value
	}
	perTransition := m["model.apply_undo_ns"].Value + hash + m["props.check_ns"].Value
	perState := m["model.steps_ns"].Value + m["model.clone_ns"].Value
	return (transitions*perTransition + m["check.states"].Value*perState) / wallNs
}
