package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() with -child, and here that is the
// test binary itself.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

// TestSmoke runs both passes of every workload at -short scale through
// the code path a full run takes (child processes included) and checks
// that every catalogued metric comes back finite and with its unit.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r, err := pass(options{workload: "all", seed: defaultSeed, itersScale: 1, short: true, trace: trace,
			traceOut: filepath.Join(t.TempDir(), "spans.json")})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Workloads) != len(workloads) {
			t.Fatalf("%d workloads reported, want %d", len(r.Workloads), len(workloads))
		}
		for _, w := range r.Workloads {
			for _, f := range w.Failures {
				t.Errorf("%s (%s pass): output check failed: %s", w.Name, r.Mode, f)
			}
			if w.Checks == 0 {
				t.Errorf("%s (%s pass): no output check was made", w.Name, r.Mode)
			}
			var line struct {
				Metrics metrics `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(w.contractLine(trace)), &line); err != nil {
				t.Fatal(err)
			}
			for name, unit := range units {
				if _, inLine := line.Metrics[name]; inLine != inContract(name, trace) {
					t.Errorf("%s: %s in the result line of the %s pass: %v", w.Name, name, r.Mode, inLine)
				}
				m := w.Metrics[name]
				if m == nil {
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s: %s has unit %q, want %q", w.Name, name, m.Unit, unit)
				}
				for _, v := range m.Samples {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v", w.Name, name, v)
					}
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if w.Metrics[d.name] == nil {
						t.Errorf("%s: end-to-end metric %s missing", w.Name, d.name)
					}
				}
			}
		}
		if trace {
			// Between them the workloads must report every per-layer metric.
			for _, d := range perLayer {
				seen := false
				for _, w := range r.Workloads {
					seen = seen || w.Metrics[d.name] != nil
				}
				if !seen {
					t.Errorf("no workload reports per-layer metric %s", d.name)
				}
			}
		}
	}
}

// inContract says whether the benchmark contract's result line of a pass
// carries the metric.
func inContract(name string, trace bool) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return !trace && d.bound > 0
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return trace && d.everywhere
		}
	}
	return false
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in this
// package saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bm.Workloads[i], w.name, w.why)
		}
	}
	var e2e []endToEndDef
	for _, d := range endToEnd {
		if d.bound > 0 {
			e2e = append(e2e, d)
		}
	}
	if len(bm.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bm.EndToEnd), len(e2e))
	}
	for i, d := range e2e {
		if got := bm.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Bound != d.bound || got.Better != "lower" {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, got, d)
		}
	}
	var layer []perLayerDef
	for _, d := range perLayer {
		if d.everywhere {
			layer = append(layer, d)
		}
	}
	if len(bm.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics, want %d", len(bm.PerLayer), len(layer))
	}
	for i, d := range layer {
		if got := bm.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, got, d)
		}
	}
}
