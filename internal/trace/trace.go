// Package trace implements the phone-side protocol trace collection of
// §3.3. Cellular modem vendors expose a debugging mode (QXDM,
// XCAL-Mobile) that CNetVerifier taps for five fields per trace item:
//
//  1. timestamp in hh:mm:ss.ms format,
//  2. trace type (e.g. STATE, SIGNAL, CONFIG),
//  3. network system (3G or 4G),
//  4. the module generating the trace (e.g. MM or CM/CC),
//  5. a free-form description (e.g. "a call is established").
//
// This package defines the record type, an in-memory Collector the
// emulated stacks write to, a line codec compatible with the format
// above, and filtering/analysis helpers used by the validation phase.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"cnetverifier/internal/types"
)

// Type classifies a trace item.
type Type string

// Trace item types.
const (
	TypeState  Type = "STATE"  // a protocol state change
	TypeSignal Type = "SIGNAL" // a signaling message sent/received
	TypeConfig Type = "CONFIG" // a radio/channel configuration change
	TypeError  Type = "ERROR"  // a failure indication
	TypeInfo   Type = "INFO"   // anything else

	// Reliable-delivery record types (the netemu retransmission layer,
	// modeled on the NAS T3410/T3310 timer discipline of §3.3): an RTO
	// expiry, the retransmission it triggers, and the abort after the
	// retry budget is exhausted.
	TypeExpiry Type = "EXPIRY" // a retransmission timer fired
	TypeRetx   Type = "RETX"   // a frame was retransmitted
	TypeAbort  Type = "ABORT"  // retries exhausted; transfer abandoned
)

// Types lists every trace type in declaration order.
var Types = []Type{TypeState, TypeSignal, TypeConfig, TypeError, TypeInfo, TypeExpiry, TypeRetx, TypeAbort}

// Record is one trace item in the §3.3 format.
type Record struct {
	// At is the virtual-time offset of the item since trace start.
	At time.Duration
	// Type is the trace type.
	Type Type
	// System is the network system generating the item.
	System types.System
	// Module is the generating module ("MM", "CM/CC", "EMM", ...).
	Module string
	// Desc is the human-readable description.
	Desc string
}

// Timestamp renders At in the hh:mm:ss.ms format of §3.3.
func (r Record) Timestamp() string {
	return string(r.appendTimestamp(make([]byte, 0, 12)))
}

func (r Record) appendTimestamp(dst []byte) []byte {
	d := r.At
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second
	d -= s * time.Second
	ms := d / time.Millisecond
	dst = appendPadded(dst, int64(h), 2)
	dst = append(dst, ':')
	dst = appendPadded(dst, int64(m), 2)
	dst = append(dst, ':')
	dst = appendPadded(dst, int64(s), 2)
	dst = append(dst, '.')
	return appendPadded(dst, int64(ms), 3)
}

// appendPadded appends v in decimal, zero-padded to width exactly as
// fmt's %0<width>d does: a minus sign counts toward the width.
func appendPadded(dst []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		width--
		u = -u
	}
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], u, 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// String renders the record as one trace line:
//
//	12:01:05.250 STATE 4G EMM attach complete
func (r Record) String() string {
	return string(r.AppendTo(make([]byte, 0, 16+len(r.Type)+len(r.Module)+len(r.Desc))))
}

// AppendTo appends the String form of the record to dst and returns the
// extended buffer — the allocation-free rendering for callers that
// reuse one buffer across many records.
func (r Record) AppendTo(dst []byte) []byte {
	dst = r.appendTimestamp(dst)
	dst = append(dst, ' ')
	dst = append(dst, r.Type...)
	dst = append(dst, ' ')
	dst = append(dst, r.System.String()...)
	dst = append(dst, ' ')
	dst = append(dst, r.Module...)
	dst = append(dst, ' ')
	return append(dst, r.Desc...)
}

// ParseRecord parses a line in the String format. The description may
// contain spaces.
func ParseRecord(line string) (Record, error) {
	parts := strings.SplitN(strings.TrimSpace(line), " ", 5)
	if len(parts) < 5 {
		return Record{}, fmt.Errorf("trace: malformed line %q", line)
	}
	at, err := parseTimestamp(parts[0])
	if err != nil {
		return Record{}, fmt.Errorf("trace: %w in %q", err, line)
	}
	sys, err := parseSystem(parts[2])
	if err != nil {
		return Record{}, fmt.Errorf("trace: %w in %q", err, line)
	}
	return Record{
		At:     at,
		Type:   Type(parts[1]),
		System: sys,
		Module: parts[3],
		Desc:   parts[4],
	}, nil
}

// parseTimestamp accepts exactly the timestamps Timestamp renders for a
// non-negative At: H+:MM:SS.mmm with at least two hour digits and no
// leading zero beyond them, minutes and seconds below 60.
func parseTimestamp(s string) (time.Duration, error) {
	n := len(s) - len(":MM:SS.mmm")
	if n >= 2 && s[n] == ':' && s[n+3] == ':' && s[n+6] == '.' && (n == 2 || s[0] != '0') {
		h, errH := strconv.ParseUint(s[:n], 10, 64)
		m, errM := strconv.ParseUint(s[n+1:n+3], 10, 64)
		sec, errS := strconv.ParseUint(s[n+4:n+6], 10, 64)
		ms, errMS := strconv.ParseUint(s[n+7:], 10, 64)
		rest := time.Duration(m)*time.Minute + time.Duration(sec)*time.Second + time.Duration(ms)*time.Millisecond
		if errH == nil && errM == nil && errS == nil && errMS == nil && m <= 59 && sec <= 59 &&
			h <= uint64(math.MaxInt64-rest)/uint64(time.Hour) {
			return time.Duration(h)*time.Hour + rest, nil
		}
	}
	return 0, fmt.Errorf("bad timestamp %q", s)
}

func parseSystem(s string) (types.System, error) {
	switch s {
	case "3G":
		return types.Sys3G, nil
	case "4G":
		return types.Sys4G, nil
	case "none":
		return types.SysNone, nil
	default:
		return 0, fmt.Errorf("bad system %q", s)
	}
}

// Collector accumulates records. It is safe for concurrent use (the
// socket prototype writes from multiple goroutines).
type Collector struct {
	mu   sync.Mutex
	recs []Record
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add appends a record.
func (c *Collector) Add(r Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

// Addf appends a record built from the arguments.
func (c *Collector) Addf(at time.Duration, typ Type, sys types.System, module, format string, args ...any) {
	c.Add(Record{At: at, Type: typ, System: sys, Module: module, Desc: fmt.Sprintf(format, args...)})
}

// Records returns a copy of the collected records in order.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.recs...)
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Reset drops all records.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = nil
}

// WriteTo writes all records as lines; it implements io.WriterTo.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, r := range c.Records() {
		k, err := fmt.Fprintln(w, r.String())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read parses records from a line stream, skipping blank lines.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec, err := ParseRecord(line)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Filter returns the records matching every non-zero criterion.
type Filter struct {
	Type   Type
	System types.System
	Module string
	// Contains requires the description to contain the substring.
	Contains string
	// After/Before bound the timestamp (inclusive / exclusive). Zero
	// values disable the bound.
	After  time.Duration
	Before time.Duration
}

// match reports whether r meets every non-zero criterion.
func (f Filter) match(r Record) bool {
	return (f.Type == "" || r.Type == f.Type) &&
		(f.System == types.SysNone || r.System == f.System) &&
		(f.Module == "" || r.Module == f.Module) &&
		(f.Contains == "" || strings.Contains(r.Desc, f.Contains)) &&
		(f.After == 0 || r.At >= f.After) &&
		(f.Before == 0 || r.At < f.Before)
}

// Apply returns the matching subset in order.
func (f Filter) Apply(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if f.match(r) {
			out = append(out, r)
		}
	}
	return out
}

// FirstMatch returns the first record matching the filter and true, or
// a zero record and false.
func (f Filter) FirstMatch(recs []Record) (Record, bool) {
	for _, r := range recs {
		if f.match(r) {
			return r, true
		}
	}
	return Record{}, false
}

// Span returns the time between the first record matching start and the
// first record at or after it matching end, or false when either is
// absent. It is the primitive behind the validation-phase latency
// measurements (e.g. Figure 4's detach→reattach recovery time).
func Span(recs []Record, start, end Filter) (time.Duration, bool) {
	s, ok := start.FirstMatch(recs)
	if !ok {
		return 0, false
	}
	for _, r := range recs {
		if r.At >= s.At && end.match(r) {
			return r.At - s.At, true
		}
	}
	return 0, false
}
