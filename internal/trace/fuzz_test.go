package trace

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"cnetverifier/internal/types"
)

// FuzzRecordLine drives arbitrary lines through the §3.3 trace codec
// and asserts that it is closed over its own output, in both
// directions:
//
//   - parse → render: any line ParseRecord accepts carries the canonical
//     timestamp, renders back to a form that re-parses to the identical
//     record, and renders identically from then on (one render reaches
//     the fixpoint);
//   - render → parse: a record whose At is any non-negative millisecond
//     count (read from the input's first eight bytes) renders to a line
//     that parses back to the identical record.
//
// The seeds cover every record type, including the reliable-delivery
// additions (EXPIRY/RETX/ABORT), and the timestamp shapes the parser
// once mis-read.
func FuzzRecordLine(f *testing.F) {
	seeds := []Record{
		{At: 0, Type: TypeState, System: types.Sys4G, Module: "EMM", Desc: "attach complete"},
		{At: 45*time.Minute + 5*time.Second + 250*time.Millisecond, Type: TypeSignal, System: types.Sys3G, Module: "MM", Desc: "LocationUpdateRequest sent"},
		{At: 12 * time.Hour, Type: TypeConfig, System: types.SysNone, Module: "RRC3G-UE", Desc: "channel reconfigured: DCH"},
		{At: time.Second, Type: TypeError, System: types.Sys4G, Module: "EMM-UE", Desc: "signal AttachRequest lost over the air"},
		{At: 1600 * time.Millisecond, Type: TypeExpiry, System: types.Sys4G, Module: "EMM-UE", Desc: "RTO 600ms expired for AttachRequest (seq 1, attempt 1)"},
		{At: 1600 * time.Millisecond, Type: TypeRetx, System: types.Sys4G, Module: "EMM-UE", Desc: "retransmit AttachRequest (seq 1, attempt 1, next RTO 1.2s)"},
		{At: 22*time.Second + 630*time.Millisecond, Type: TypeAbort, System: types.Sys4G, Module: "EMM-MME", Desc: "TrackingAreaUpdateReject (seq 7) abandoned after 5 attempts"},
		{At: 3 * time.Second, Type: TypeInfo, System: types.Sys3G, Module: "GMM-UE", Desc: "duplicate RoutingAreaUpdateRequest (seq 5) suppressed"},
	}
	for _, r := range seeds {
		f.Add(r.String())
	}
	// Malformed shapes that must be rejected, not crash.
	f.Add("")
	f.Add("00:00:00.000 STATE 4G EMM")      // missing description
	f.Add("99:99:99.999 STATE 4G EMM desc") // out-of-range timestamp
	f.Add("00:00:00.000 STATE 5G EMM desc") // unknown system
	f.Add("not a trace line at all, sorry")
	// Timestamps that are not what String renders: short and long
	// milliseconds and trailing garbage must be rejected, while 100 h and
	// more (three or more hour digits) must be accepted.
	f.Add("00:00:01.5 STATE 4G EMM desc")
	f.Add("00:00:01.2345 STATE 4G EMM desc")
	f.Add("00:00:01.999x STATE 4G EMM desc")
	f.Add("100:00:01.500 STATE 4G EMM desc")

	f.Fuzz(func(t *testing.T, line string) {
		var b [8]byte
		copy(b[:], line)
		at := time.Duration(binary.LittleEndian.Uint64(b[:]) & math.MaxInt64).Truncate(time.Millisecond)
		rendered := Record{At: at, Type: TypeSignal, System: types.Sys4G, Module: "EMM", Desc: "render"}
		if back, err := ParseRecord(rendered.String()); err != nil || back != rendered {
			t.Fatalf("rendered At=%d does not round-trip: %q -> %+v, %v", int64(at), rendered.String(), back, err)
		}

		rec, err := ParseRecord(line)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if rec.At < 0 {
			t.Fatalf("accepted negative timestamp %v from %q", rec.At, line)
		}
		if ts := strings.SplitN(strings.TrimSpace(line), " ", 2)[0]; ts != rec.Timestamp() {
			t.Fatalf("accepted non-canonical timestamp %q (renders as %q)", ts, rec.Timestamp())
		}
		// An empty description renders with a trailing space that the
		// parser's trim then folds away; such records are only produced
		// by hand, never by the collector, and are not canonical.
		if rec.Desc == "" {
			return
		}
		canon := rec.String()
		again, err := ParseRecord(canon)
		if err != nil {
			t.Fatalf("canonical render of %q does not re-parse: %v\nrender: %q", line, err, canon)
		}
		if again != rec {
			t.Fatalf("round-trip changed the record:\n  first:  %#v\n  second: %#v", rec, again)
		}
		if got := again.String(); got != canon {
			t.Fatalf("render not a fixpoint:\n  first:  %q\n  second: %q", canon, got)
		}
	})
}
