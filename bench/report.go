package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

const schema = "cnet-bench/1"

// report is one pass over the selected workloads: what is printed, what
// -json writes and what -compare reads.
type report struct {
	Schema    string            `json:"schema"`
	Env       envBlock          `json:"env"`
	Mode      string            `json:"mode"`
	Workloads []*workloadReport `json:"workloads"`
}

type envBlock struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

type workloadReport struct {
	Name     string                   `json:"name"`
	Iters    int                      `json:"iters"`
	Checks   int                      `json:"checks"`
	Failures []string                 `json:"failures"`
	SpanFile string                   `json:"span_file,omitempty"`
	Metrics  map[string]*metricReport `json:"metrics"`
}

// metricReport keeps a metric's samples; the spread is derived from them
// when printing, and written next to them in the JSON file.
type metricReport struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Summary *summary  `json:"summary,omitempty"`
}

func (m *metricReport) summary() summary {
	if m == nil {
		return summary{}
	}
	return summarize(m.Samples)
}

func (m *metricReport) MarshalJSON() ([]byte, error) {
	type plain metricReport
	out := plain(*m)
	s := m.summary()
	out.Summary = &s
	return json.Marshal(out)
}

func (w *workloadReport) add(name, unit string, samples ...float64) {
	m := w.Metrics[name]
	if m == nil {
		m = &metricReport{Unit: unit}
		w.Metrics[name] = m
	}
	m.Samples = append(m.Samples, samples...)
}

func (w *workloadReport) fromChild(res *childResult) {
	w.Iters, w.Checks, w.Failures, w.SpanFile = res.Iters, res.Checks, res.Failures, res.SpanFile
}

func (r *report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += len(w.Failures)
	}
	return n
}

func (r *report) print(out io.Writer) {
	e := r.Env
	fmt.Fprintf(out, "environment: %d CPUs, GOMAXPROCS %d, %s, %s, commit %s, seed %d\n", e.CPUs, e.GOMAXPROCS, e.Go, e.OS, e.Commit, e.Seed)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n%s: %s pass, %d iterations, %d output checks, %d failed\n", w.Name, r.Mode, w.Iters, w.Checks, len(w.Failures))
		for _, f := range w.Failures {
			fmt.Fprintf(out, "  FAILED: %s\n", f)
		}
		if w.SpanFile != "" {
			fmt.Fprintf(out, "  spans: %s\n", w.SpanFile)
		}
		if r.Mode == "trace" {
			// One value per metric: the pass has already taken medians.
			for _, name := range w.metricNames() {
				m := w.Metrics[name]
				fmt.Fprintf(out, "  %-30s %-6s %14.6g\n", name, m.Unit, m.summary().Median)
			}
			continue
		}
		fmt.Fprintf(out, "  %-14s %-6s %12s %4s %12s %12s %12s %12s\n", "metric", "unit", "median", "n", "min", "q1", "q3", "max")
		for _, name := range w.metricNames() {
			m := w.Metrics[name]
			s := m.summary()
			fmt.Fprintf(out, "  %-14s %-6s %12.6g %4d %12.6g %12.6g %12.6g %12.6g\n", name, m.Unit, s.Median, s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
	}
}

// metricNames lists a workload's metrics in catalogue order.
func (w *workloadReport) metricNames() []string {
	var names []string
	for _, d := range endToEnd {
		if w.Metrics[d.name] != nil {
			names = append(names, d.name)
		}
	}
	for _, d := range perLayer {
		if w.Metrics[d.name] != nil {
			names = append(names, d.name)
		}
	}
	return names
}

// contractLine renders the result line of the benchmark contract: the
// end-to-end medians of an end-to-end pass, or every per-layer metric
// BENCHMARK.json lists for a trace pass. A layer the workload does not
// enter reads 0 there (no work, no share).
func (w *workloadReport) contractLine(trace bool) string {
	m := metrics{}
	if trace {
		for _, d := range perLayer {
			if d.everywhere {
				m.set(d.name, w.Metrics[d.name].summary().Median)
			}
		}
	} else {
		for _, d := range endToEnd {
			if d.bound > 0 {
				m.set(d.name, w.Metrics[d.name].summary().Median)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(w.Failures) == 0, w.Checks, len(w.Failures), m})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}

// verdict judges one end-to-end metric (lower is better) of a new run
// against an old one, by the rule of the choosing-metrics guide: worse
// by more than the bound is a regression, unless the run-to-run spread is
// itself wider than the bound and the runs overlap, in which case the
// pair does not resolve the question.
func verdict(old, new summary, bound float64) string {
	if old.Median == 0 {
		if new.Median > 0 {
			return "worse"
		}
		return "within bound"
	}
	change := (new.Median - old.Median) / old.Median
	spread := max(old.spread(), new.spread())
	overlap := new.Min <= old.Max && old.Min <= new.Max
	switch {
	case spread > bound && overlap:
		return "unresolved"
	case change > bound:
		return "worse"
	case change < 0 && -change > spread && !overlap:
		return "better"
	default:
		return "within bound"
	}
}

func runCompare(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two files: OLD.json NEW.json")
	}
	old, err := readReport(paths[0])
	if err != nil {
		return err
	}
	new, err := readReport(paths[1])
	if err != nil {
		return err
	}
	fmt.Printf("old: %s (commit %s, %s, %d CPUs, seed %d)\n", paths[0], old.Env.Commit, old.Env.Go, old.Env.CPUs, old.Env.Seed)
	fmt.Printf("new: %s (commit %s, %s, %d CPUs, seed %d)\n", paths[1], new.Env.Commit, new.Env.Go, new.Env.CPUs, new.Env.Seed)
	byName := map[string]*workloadReport{}
	for _, w := range old.Workloads {
		byName[w.Name] = w
	}
	for _, nw := range new.Workloads {
		ow := byName[nw.Name]
		if ow == nil {
			fmt.Printf("\n%s: not in the old file\n", nw.Name)
			continue
		}
		fmt.Printf("\n%s\n", nw.Name)
		fmt.Printf("  %-14s %-5s %34s %34s %16s  %s\n", "end-to-end", "unit", "old median [q1, q3] n", "new median [q1, q3] n", "new/old", "verdict")
		for _, d := range endToEnd {
			om, nm := ow.Metrics[d.name], nw.Metrics[d.name]
			if om == nil || nm == nil {
				continue
			}
			o, n := om.summary(), nm.summary()
			ratio := "-"
			if o.Median != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", n.Median/o.Median, o.Median)
			}
			fmt.Printf("  %-14s %-5s %34s %34s %16s  %s\n", d.name, d.unit, cell(o), cell(n), ratio, verdict(o, n, d.bound))
		}
		var layer []string
		for name := range nw.Metrics {
			if _, inOld := ow.Metrics[name]; inOld && !isEndToEnd(name) {
				layer = append(layer, name)
			}
		}
		sort.Strings(layer)
		if len(layer) > 0 {
			fmt.Printf("  %-30s %-6s %14s %14s  %s\n", "per-layer", "unit", "old", "new", "")
		}
		for _, name := range layer {
			o, n := ow.Metrics[name].summary().Median, nw.Metrics[name].summary().Median
			note := ""
			if nw.Metrics[name].Unit == "count" { // counts repeat exactly, so any difference is a change
				note = "exact match"
				if o != n {
					note = "COUNT DIFFERS"
				}
			}
			fmt.Printf("  %-30s %-6s %14.6g %14.6g  %s\n", name, nw.Metrics[name].Unit, o, n, note)
		}
	}
	return nil
}

func cell(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}
