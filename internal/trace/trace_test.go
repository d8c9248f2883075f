package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cnetverifier/internal/types"
)

func rec(at time.Duration, typ Type, sys types.System, mod, desc string) Record {
	return Record{At: at, Type: typ, System: sys, Module: mod, Desc: desc}
}

func TestTimestampFormat(t *testing.T) {
	cases := []struct {
		at   time.Duration
		want string
	}{
		{0, "00:00:00.000"},
		{time.Millisecond * 1, "00:00:00.001"},
		{time.Hour + 2*time.Minute + 3*time.Second + 45*time.Millisecond, "01:02:03.045"},
		{25 * time.Hour, "25:00:00.000"},
	}
	for _, c := range cases {
		if got := (Record{At: c.at}).Timestamp(); got != c.want {
			t.Errorf("Timestamp(%v) = %q, want %q", c.at, got, c.want)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := rec(90*time.Second+250*time.Millisecond, TypeState, types.Sys4G, "EMM", "attach complete")
	line := r.String()
	if line != "00:01:30.250 STATE 4G EMM attach complete" {
		t.Fatalf("line = %q", line)
	}
	back, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip = %+v, want %+v", back, r)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"only three fields here",
		"notatime STATE 4G EMM x",
		"00:00:00.000 STATE 5G EMM x",
		"00:99:00.000 STATE 4G EMM x",
	}
	for _, line := range bad {
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) succeeded", line)
		}
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Addf(time.Second, TypeSignal, types.Sys3G, "MM", "LAU %s", "sent")
	c.Add(rec(2*time.Second, TypeState, types.Sys3G, "MM", "registered"))
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	recs := c.Records()
	if recs[0].Desc != "LAU sent" {
		t.Fatalf("recs[0] = %+v", recs[0])
	}
	// Records returns a copy.
	recs[0].Desc = "mutated"
	if c.Records()[0].Desc != "LAU sent" {
		t.Fatal("Records leaked internal slice")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWriteToAndRead(t *testing.T) {
	c := NewCollector()
	c.Add(rec(time.Second, TypeSignal, types.Sys3G, "MM", "location update request"))
	c.Add(rec(2*time.Second, TypeConfig, types.Sys3G, "3G-RRC", "64QAM disabled"))
	var b strings.Builder
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String() + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Module != "3G-RRC" {
		t.Fatalf("read back %+v", got)
	}
}

func TestReadError(t *testing.T) {
	if _, err := Read(strings.NewReader("garbage line\n")); err == nil {
		t.Fatal("bad stream accepted")
	}
}

func sampleRecs() []Record {
	return []Record{
		rec(1*time.Second, TypeSignal, types.Sys4G, "EMM", "attach request"),
		rec(2*time.Second, TypeState, types.Sys4G, "EMM", "registered"),
		rec(3*time.Second, TypeSignal, types.Sys3G, "MM", "location update request"),
		rec(5*time.Second, TypeState, types.Sys3G, "MM", "registered"),
		rec(7*time.Second, TypeError, types.Sys4G, "EMM", "tracking area update reject"),
		rec(9*time.Second, TypeState, types.Sys4G, "EMM", "registered"),
	}
}

func TestFilter(t *testing.T) {
	recs := sampleRecs()
	if got := (Filter{System: types.Sys3G}).Apply(recs); len(got) != 2 {
		t.Fatalf("system filter = %d records", len(got))
	}
	if got := (Filter{Module: "EMM", Type: TypeState}).Apply(recs); len(got) != 2 {
		t.Fatalf("module+type filter = %d records", len(got))
	}
	if got := (Filter{Contains: "reject"}).Apply(recs); len(got) != 1 {
		t.Fatalf("contains filter = %d records", len(got))
	}
	if got := (Filter{After: 3 * time.Second, Before: 7 * time.Second}).Apply(recs); len(got) != 2 {
		t.Fatalf("time filter = %d records", len(got))
	}
}

func TestFirstMatch(t *testing.T) {
	recs := sampleRecs()
	r, ok := Filter{Type: TypeError}.FirstMatch(recs)
	if !ok || r.At != 7*time.Second {
		t.Fatalf("first match = %+v, %v", r, ok)
	}
	if _, ok := (Filter{Module: "nope"}).FirstMatch(recs); ok {
		t.Fatal("matched nothing expected")
	}
}

// Figure 4 primitive: the recovery time between the TAU reject and the
// subsequent re-registration.
func TestSpanRecoveryTime(t *testing.T) {
	recs := sampleRecs()
	d, ok := Span(recs,
		Filter{Type: TypeError, Contains: "reject"},
		Filter{Type: TypeState, Contains: "registered", System: types.Sys4G})
	if !ok {
		t.Fatal("span not found")
	}
	if d != 2*time.Second {
		t.Fatalf("recovery span = %v, want 2s", d)
	}
	if _, ok := Span(recs, Filter{Contains: "missing"}, Filter{}); ok {
		t.Fatal("span with absent start matched")
	}
	if _, ok := Span(recs, Filter{Type: TypeError}, Filter{Contains: "missing"}); ok {
		t.Fatal("span with absent end matched")
	}
}

// Property: String/ParseRecord round-trips for arbitrary (bounded)
// records whose descriptions are printable and non-empty.
func TestQuickRoundTrip(t *testing.T) {
	f := func(ms uint32, mod uint8, descSeed uint8) bool {
		r := Record{
			At:     time.Duration(ms%86_400_000) * time.Millisecond,
			Type:   []Type{TypeState, TypeSignal, TypeConfig, TypeError, TypeInfo}[int(mod)%5],
			System: []types.System{types.Sys3G, types.Sys4G}[int(mod)%2],
			Module: []string{"EMM", "MM", "CM/CC", "3G-RRC"}[int(mod)%4],
			Desc:   strings.Repeat("x", int(descSeed)%5+1) + " event",
		}
		back, err := ParseRecord(r.String())
		return err == nil && back == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				c.Addf(time.Duration(j)*time.Millisecond, TypeInfo, types.Sys4G, "EMM", "tick")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if c.Len() != 800 {
		t.Fatalf("len = %d, want 800", c.Len())
	}
}

// fmtRender is the fmt-based rendering AppendTo replaced; the byte-exact
// equality below keeps every trace digest computed over rendered lines.
func fmtRender(r Record) string {
	d := r.At
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second
	d -= s * time.Second
	ms := d / time.Millisecond
	ts := fmt.Sprintf("%02d:%02d:%02d.%03d", h, m, s, ms)
	return fmt.Sprintf("%s %s %s %s %s", ts, r.Type, r.System, r.Module, r.Desc)
}

func TestRenderMatchesFmt(t *testing.T) {
	ats := []time.Duration{
		0,
		time.Millisecond,
		999 * time.Millisecond,
		time.Second,
		time.Second + 999*time.Millisecond + 999*time.Microsecond, // sub-ms truncated
		59*time.Minute + 59*time.Second + 999*time.Millisecond,
		time.Hour,
		99*time.Hour + 59*time.Minute + 59*time.Second + 999*time.Millisecond,
		100 * time.Hour,
		100*time.Hour + time.Millisecond,
		time.Duration(math.MaxInt64),
		-time.Millisecond, // never collected, but rendered like fmt all the same
		-(25*time.Hour + 3*time.Second),
	}
	typs := append([]Type{""}, Types...)
	systems := []types.System{types.SysNone, types.Sys3G, types.Sys4G, types.System(9)}
	for _, at := range ats {
		for _, typ := range typs {
			for _, sys := range systems {
				r := Record{At: at, Type: typ, System: sys, Module: "EMM-UE", Desc: "AttachRequest -> Registered [accept]"}
				want := fmtRender(r)
				if got := r.String(); got != want {
					t.Fatalf("String() = %q, want %q", got, want)
				}
				if got := string(r.AppendTo([]byte("prefix|"))); got != "prefix|"+want {
					t.Fatalf("AppendTo = %q, want %q", got, "prefix|"+want)
				}
				if ts := r.Timestamp(); !strings.HasPrefix(want, ts+" ") {
					t.Fatalf("Timestamp() = %q, line %q", ts, want)
				}
			}
		}
	}
}

// The codec is closed over its own output: the parser accepts exactly
// the timestamps String renders for a non-negative At.
func TestParseCanonicalTimestampsOnly(t *testing.T) {
	for _, ts := range []string{
		"00:00:01.5",    // short milliseconds
		"00:00:01.2345", // long milliseconds
		"00:00:01.999x", // trailing garbage
		"0:00:01.500",   // one hour digit
		"000:00:01.500", // padded beyond two hour digits
		"-1:00:01.500",
		"+01:00:01.500",
		"01:0a:01.500",
		"01:00:60.000",
		"01:60:00.000",
		"2562048:00:00.000", // overflows time.Duration
		"99999999999999999999999:00:00.000",
	} {
		if _, err := ParseRecord(ts + " STATE 4G EMM x"); err == nil {
			t.Errorf("ParseRecord accepted timestamp %q", ts)
		}
	}
	for _, at := range []time.Duration{
		0,
		100*time.Hour + 1500*time.Millisecond,
		time.Duration(math.MaxInt64).Truncate(time.Millisecond),
	} {
		r := Record{At: at, Type: TypeInfo, System: types.Sys3G, Module: "MM", Desc: "x"}
		back, err := ParseRecord(r.String())
		if err != nil || back != r {
			t.Errorf("round trip of At=%v: %+v, %v", at, back, err)
		}
	}
}
