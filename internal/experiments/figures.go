package experiments

import (
	"fmt"
	"strings"
	"time"

	"cnetverifier/internal/names"
	"cnetverifier/internal/netemu"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/stats"
	"cnetverifier/internal/trace"
	"cnetverifier/internal/types"
	"cnetverifier/internal/workload"
)

// Figure4Row is one operator's recovery-time distribution (Figure 4).
type Figure4Row struct {
	Operator string
	Summary  stats.Summary
	Samples  []float64
}

// Figure4RecoveryTime measures the S1 recovery time — from the
// tracking-area-update reject to the completed re-attach — over the
// requested number of runs per operator (the paper used >50). Each run
// drives the full S1 flow end-to-end in the emulator; the re-attach
// completion is operator-controlled (§5.1.3: "the re-attach is mainly
// controlled by operators"), so its processing delay is sampled from
// the calibrated profile and the total is measured from the trace.
func Figure4RecoveryTime(runs int, seed int64) []Figure4Row {
	var rows []Figure4Row
	for _, p := range netemu.Operators() {
		var samples []float64
		for i := 0; i < runs; i++ {
			d, ok := oneRecovery(p, seed+int64(i))
			if !ok {
				continue
			}
			samples = append(samples, d.Seconds())
		}
		rows = append(rows, Figure4Row{Operator: p.Name, Summary: stats.Summarize(samples), Samples: samples})
	}
	return rows
}

func oneRecovery(p netemu.OperatorProfile, seed int64) (time.Duration, bool) {
	w := netemu.NewWorld(seed)
	netemu.StandardStack(w, p, netemu.FixSet{})

	w.InjectAt(0, names.UEEMM, types.Message{Kind: types.MsgPowerOn})
	w.InjectAt(time.Second, names.UEGMM, types.Message{Kind: types.MsgInterSystemSwitchCommand})
	w.InjectAt(2*time.Second, names.UESM, types.Message{Kind: types.MsgDeactivatePDPRequest, Cause: types.CauseRegularDeactivation})
	w.InjectAt(3*time.Second, names.UEEMM, types.Message{Kind: types.MsgInterSystemCellReselect})
	w.Run()
	if w.Global(names.GDetachedByNet) != 1 {
		return 0, false
	}
	// Operator-side re-attach processing delay, then the re-attach.
	delay := p.Reattach.Sample(w.Sim.Rand())
	w.InjectAt(w.Sim.Now()+delay, names.UEEMM, types.Message{Kind: types.MsgPeriodicTimer})
	w.Run()

	recs := w.Collector.Records()
	d, ok := trace.Span(recs,
		trace.Filter{Contains: types.MsgTrackingAreaUpdateReject.String()},
		trace.Filter{Contains: types.MsgAttachComplete.String()})
	return d, ok
}

// RenderFigure4 renders the Figure 4 distributions.
func RenderFigure4(rows []Figure4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: recovery time from the detached event (S1)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s min=%.1fs median=%.1fs max=%.1fs (n=%d)\n",
			r.Operator, r.Summary.Min, r.Summary.Median, r.Summary.Max, r.Summary.N)
	}
	return b.String()
}

// Figure7Point is one outgoing call on the Route-1 drive.
type Figure7Point struct {
	// Milepost where the call was dialed.
	Milepost float64
	// SetupSec is the dial→connected time.
	SetupSec float64
	// RSSI at the dial position.
	RSSI float64
	// DuringUpdate reports the S4 condition: the dial landed inside a
	// location-area update.
	DuringUpdate bool
}

// Figure7CallSetup reproduces the Route-1 drive (§6.1.2): the caller
// repeatedly dials, and immediately dials again once the callee hangs
// up, while driving the 15-mile freeway route. Calls dialed while a
// location update runs pay the S4 head-of-line penalty (the paper
// measured 19.7 s vs the 11.4 s average).
func Figure7CallSetup(p netemu.OperatorProfile, speedMPH float64, seed int64) []Figure7Point {
	route := radio.Route1()
	pl := radio.DefaultPathLoss()
	rng := stats.NewRand(seed)

	var pts []Figure7Point
	milesPerSec := speedMPH / 3600
	pos := 0.0
	// Pending update state: updates trigger at boundary crossings and
	// occupy MM for the LAU duration plus the WAIT-FOR-NET-CMD tail.
	updateBusyUntil := -1.0 // in route-time seconds
	now := 0.0

	for pos < route.LengthMiles {
		// Dial here.
		setup := p.CallSetupBase.Sample(rng).Seconds()
		during := now < updateBusyUntil
		if during {
			// S4: the request waits for the update to drain.
			setup += updateBusyUntil - now
		}
		pts = append(pts, Figure7Point{
			Milepost:     pos,
			SetupSec:     setup,
			RSSI:         route.RSSIAt(pos, pl, rng),
			DuringUpdate: during,
		})

		// Call holds ~45 s, then the next dial follows immediately.
		callDur := 45.0
		prev := pos
		now += setup + callDur
		pos += (setup + callDur) * milesPerSec
		// A boundary crossed during this segment starts an update that
		// blocks the next dial if still running.
		if route.CrossesUpdate(prev, pos) {
			lau := p.LAU.Sample(rng).Seconds() + p.WaitNetCmdExtra.Seconds()
			updateBusyUntil = now + lau
		}
	}
	return pts
}

// RenderFigure7 renders the call-setup series.
func RenderFigure7(pts []Figure7Point) string {
	var b strings.Builder
	b.WriteString("Figure 7: call setup time and RSSI along Route-1\n")
	fmt.Fprintf(&b, "%-10s %-12s %-10s %s\n", "mile", "setup (s)", "RSSI (dBm)", "during update")
	var base, blocked []float64
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-10.1f %-12.1f %-10.1f %v\n", pt.Milepost, pt.SetupSec, pt.RSSI, pt.DuringUpdate)
		if pt.DuringUpdate {
			blocked = append(blocked, pt.SetupSec)
		} else {
			base = append(base, pt.SetupSec)
		}
	}
	fmt.Fprintf(&b, "average setup: %.1fs; during-update setup: %.1fs\n",
		stats.Mean(base), stats.Mean(blocked))
	return b.String()
}

// Figure8CDFs samples the per-operator location-area (CS) and
// routing-area (PS) update durations and returns their empirical CDFs,
// keyed "OP-I/LAU", "OP-I/RAU", "OP-II/LAU", "OP-II/RAU".
func Figure8CDFs(n int, seed int64) map[string]*stats.CDF {
	out := make(map[string]*stats.CDF)
	rng := stats.NewRand(seed)
	for _, p := range netemu.Operators() {
		var lau, rau []float64
		for i := 0; i < n; i++ {
			lau = append(lau, p.LAU.Sample(rng).Seconds())
			rau = append(rau, p.RAU.Sample(rng).Seconds())
		}
		out[p.Name+"/LAU"] = stats.NewCDF(lau)
		out[p.Name+"/RAU"] = stats.NewCDF(rau)
	}
	return out
}

// RenderFigure8 renders quantiles of the four update-duration CDFs.
func RenderFigure8(cdfs map[string]*stats.CDF) string {
	var b strings.Builder
	b.WriteString("Figure 8: CDF of location/routing area update durations\n")
	for _, key := range []string{"OP-I/LAU", "OP-II/LAU", "OP-I/RAU", "OP-II/RAU"} {
		c, ok := cdfs[key]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-10s p25=%.1fs p50=%.1fs p75=%.1fs p90=%.1fs\n",
			key, c.Quantile(0.25), c.Quantile(0.5), c.Quantile(0.75), c.Quantile(0.9))
	}
	return b.String()
}

// Figure9Bucket is one time-of-day bucket of Figure 9.
type Figure9Bucket struct {
	Label    string
	HourLo   int
	WithCall stats.Summary
	NoCall   stats.Summary
}

// Figure9Buckets are the paper's 3-hour measurement windows (8am–2am).
func figure9Hours() [][2]int {
	return [][2]int{{8, 11}, {11, 14}, {14, 17}, {17, 20}, {20, 23}, {23, 2}}
}

// Figure9Rates measures the PS rate with and without a concurrent CS
// call per time-of-day bucket for one operator and direction.
func Figure9Rates(p netemu.OperatorProfile, uplink bool, runsPerBucket int, seed int64) []Figure9Bucket {
	rng := stats.NewRand(seed)
	var out []Figure9Bucket
	for _, hh := range figure9Hours() {
		label := fmt.Sprintf("%d-%d", hh[0], hh[1])
		var with, without []float64
		for i := 0; i < runsPerBucket; i++ {
			load := workload.Jitter(radio.LoadFactor(hh[0]), 0.25, rng)

			idle := netemu.SharedChannelFor(p, netemu.FixSet{}, uplink)
			busy := netemu.SharedChannelFor(p, netemu.FixSet{}, uplink)
			busy.CallActive = true
			if uplink {
				without = append(without, idle.DataRateUL(load))
				with = append(with, busy.DataRateUL(load))
			} else {
				without = append(without, idle.DataRateDL(load))
				with = append(with, busy.DataRateDL(load))
			}
		}
		out = append(out, Figure9Bucket{
			Label:    label,
			HourLo:   hh[0],
			WithCall: stats.Summarize(with),
			NoCall:   stats.Summarize(without),
		})
	}
	return out
}

// Figure9Drop returns the mean rate drop (0..1) across buckets — the
// paper's headline percentages (DL 73.9% OP-I / 74.8% OP-II; UL 51.1%
// OP-I / 96.1% OP-II).
func Figure9Drop(buckets []Figure9Bucket) float64 {
	var with, without float64
	for _, bkt := range buckets {
		with += bkt.WithCall.Mean
		without += bkt.NoCall.Mean
	}
	if without == 0 {
		return 0
	}
	return 1 - with/without
}

// RenderFigure9 renders one operator+direction panel of Figure 9.
func RenderFigure9(p netemu.OperatorProfile, uplink bool, buckets []Figure9Bucket) string {
	dir := "downlink"
	if uplink {
		dir = "uplink"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 (%s, %s): speed with/without CS call\n", dir, p.Name)
	fmt.Fprintf(&b, "%-8s %-26s %s\n", "hours", "w/o call (min/med/max)", "w/ call (min/med/max)")
	for _, bkt := range buckets {
		fmt.Fprintf(&b, "%-8s %6.2f /%6.2f /%6.2f     %6.2f /%6.2f /%6.2f Mbps\n",
			bkt.Label,
			bkt.NoCall.Min, bkt.NoCall.Median, bkt.NoCall.Max,
			bkt.WithCall.Min, bkt.WithCall.Median, bkt.WithCall.Max)
	}
	fmt.Fprintf(&b, "mean rate drop during calls: %.1f%%\n", Figure9Drop(buckets)*100)
	return b.String()
}

// Figure10Trace reproduces the §6.2 example trace: a data session in
// 3G, a voice call starting (64QAM disabled) and ending (64QAM
// restored), as observed by the device-side trace collector.
func Figure10Trace(seed int64) []trace.Record {
	w := netemu.NewWorld(seed)
	netemu.StandardStack(w, netemu.OPI(), netemu.FixSet{})
	w.SetGlobal(names.GSys, int(types.Sys3G))

	w.InjectAt(0, names.UEMM, types.Message{Kind: types.MsgPowerOn})
	w.InjectAt(2*time.Second, names.UERRC3G, types.Message{Kind: types.MsgUserDataOn})
	w.InjectAt(10*time.Second, names.UECM, types.Message{Kind: types.MsgUserDialCall})
	w.RunUntil(40 * time.Second)
	w.Inject(names.UECM, types.Message{Kind: types.MsgUserHangUp})
	w.Run()

	return trace.Filter{Module: "RRC3G-UE"}.Apply(w.Collector.Records())
}

// RenderFigure10 renders the modulation trace.
func RenderFigure10(recs []trace.Record) string {
	var b strings.Builder
	b.WriteString("Figure 10: example protocol trace (modulation during CS call)\n")
	for _, r := range recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
