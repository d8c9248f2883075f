package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the driver made into a layer. Times are
// nanoseconds since the tracer was created; Parent indexes the span that
// was open when this one started (-1 for a root) and Iter is the
// iteration the span belongs to.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
}

// tracer keeps spans in memory until the run ends. The driver is single
// threaded, so the open spans form a stack. A nil tracer records
// nothing: the end-to-end pass runs with tracing off.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	iter  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

var noop = func() {}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Iter: t.iter,
		Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.epoch))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus what its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// durations sums, for every traced iteration, the time the spans of the
// given name cover, and counts those spans.
func (t *tracer) durations(name string) (ns []float64, calls int) {
	ns = make([]float64, t.iter)
	for _, s := range t.spans {
		if s.Name == name {
			ns[s.Iter] += float64(s.End - s.Start)
			calls++
		}
	}
	return ns, calls
}

// write stores the spans, each with its self time, as JSON.
func (t *tracer) write(path string) error {
	type spanOut struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := t.selfTimes()
	out := make([]spanOut, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanOut{s, self[i]}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
