package main

import "fmt"

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a catalogued metric name to its value.
type metrics map[string]value

// set records a metric. The unit comes from the catalogue; a name the
// catalogue does not know is a bug in the driver.
func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	m[name] = value{Value: v, Unit: unit}
}

// endToEndDef is a metric a user of the pipeline sees (README,
// "End-to-end metrics"). All are lower-is-better. bound is the share of
// the baseline median by which the metric may worsen before a change
// counts as a regression; README says why wall_s and cpu_s carry 25% and
// peak_heap_mb 20%, not the 10% the benchmark was specified with.
type endToEndDef struct {
	name, unit string
	bound      float64
}

var endToEnd = []endToEndDef{
	{"wall_s", "s", 0.25},
	{"cpu_s", "s", 0.25},
	{"peak_heap_mb", "MB", 0.20},
	{"setup_s", "s", 0.25},
	// fail_share has no relative bound: it is 0 on every workload and any
	// increase is a failure. The benchmark contract carries it as
	// failed/attempted, so BENCHMARK.json does not list it.
	{"fail_share", "ratio", 0},
}

// perLayerDef is a metric of one layer, measured from outside it
// (README, "Per-layer metrics", has each definition). better is the
// direction BENCHMARK.json records; for a count that is an answer it only
// says which way a reduction would move it.
//
// everywhere marks the metrics every trace pass can report: probes over
// fixed inputs, and counts and ratios, which read 0 where a workload does
// not enter the layer. The others are per-call times taken from spans
// that only some workloads open, so on the rest they would be a time
// that never varies. BENCHMARK.json lists the everywhere ones.
type perLayerDef struct {
	name, unit, better string
	everywhere         bool
}

const lower, higher = "lower", "higher"

var perLayer = []perLayerDef{
	{"pipeline.build_share", "ratio", lower, true},
	{"pipeline.lint_share", "ratio", lower, true},
	{"pipeline.screen_share", "ratio", lower, true},
	{"pipeline.shrink_share", "ratio", lower, true},
	{"pipeline.replay_share", "ratio", lower, true},
	{"pipeline.verifyfixes_share", "ratio", lower, true},
	{"lint.world_ns", "ns", lower, true},
	{"effects.analyze_ns", "ns", lower, true},
	{"model.steps_ns", "ns", lower, true},
	{"model.steps_per_state", "count", lower, true},
	{"model.apply_undo_ns", "ns", lower, true},
	{"model.hash_plain_ns", "ns", lower, true},
	{"model.hash_canon_ns", "ns", lower, true},
	{"model.enc_bytes", "B", lower, true},
	{"model.clone_ns", "ns", lower, true},
	{"model.timer_step_share", "ratio", lower, true},
	{"props.check_ns", "ns", lower, true},
	{"check.states", "count", lower, true},
	{"check.transitions", "count", lower, true},
	{"check.violations", "count", higher, true},
	{"check.max_depth", "count", lower, true},
	{"check.new_state_share", "ratio", higher, true},
	{"check.states_per_s", "1/s", higher, true},
	{"check.ns_per_transition", "ns", lower, false},
	{"check.alloc_b_per_state", "B", lower, true},
	{"check.allocs_per_state", "count", lower, true},
	{"check.visited_b_per_state", "B", lower, true},
	{"check.visited_grows", "count", lower, true},
	{"check.probe_max", "count", lower, true},
	{"check.attributed_share", "ratio", higher, true},
	{"check.engine_self_share", "ratio", lower, true},
	{"check.reexpansion_ratio", "ratio", lower, true},
	{"check.par2_speedup", "ratio", higher, true},
	{"check.par2_cpu_ratio", "ratio", lower, true},
	{"fuzz.steps", "count", higher, true},
	{"fuzz.steps_per_s", "1/s", higher, true},
	{"fuzz.schedules", "count", higher, true},
	{"fuzz.kept_share", "ratio", higher, true},
	{"fuzz.shrink_ns", "ns", lower, false},
	{"fuzz.shrink_tests", "count", lower, true},
	{"fuzz.shrink_ratio", "ratio", lower, true},
	{"validate.replays", "count", higher, true},
	{"validate.replay_ns", "ns", lower, false},
	{"validate.reproduced_share", "ratio", higher, true},
	{"netemu.records_per_replay", "count", lower, true},
	{"netemu.retx_per_replay", "count", lower, true},
	{"netemu.abort_share", "ratio", lower, true},
	{"netemu.sim_event_ns", "ns", lower, true},
	{"netemu.sim_cancel_ns", "ns", lower, true},
	{"netemu.retained_kb_per_replay", "KB", lower, true},
	{"campaign.procs", "count", higher, true},
	{"campaign.procs_per_s", "1/s", higher, true},
	{"campaign.alloc_b_per_ue", "B", lower, true},
	{"campaign.dist_sample_ns", "ns", lower, true},
	{"campaign.render_ns", "ns", lower, false},
	{"campaign.w2_speedup", "ratio", higher, true},
	{"trace.overhead_share", "ratio", lower, true},
}

// units maps every catalogued metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.name] = d.unit
	}
	for _, d := range perLayer {
		u[d.name] = d.unit
	}
	return u
}()
