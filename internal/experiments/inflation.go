package experiments

import (
	"fmt"
	"strings"
	"time"

	"cnetverifier/internal/netemu"
	"cnetverifier/internal/stats"
)

// InflationPoint quantifies §7's closing observation — "though some
// issues arise with small or negligible probability during normal
// usage, they may be manipulated and inflated if malicious exploits
// are launched" — for the CSFB-coupled findings: at a given incoming
// CSFB call rate toward a victim with mobile data on, what fraction of
// time does the device spend degraded (stuck in 3G, S3) or out of
// service (failed location updates, S6)?
//
// This is a defensive availability assessment: it measures the damage
// an elevated call rate can inflict and shows the §8 fixes bound it.
type InflationPoint struct {
	CallsPerHour float64
	// DegradedFraction is time stuck in 3G / total (S3 inflation).
	DegradedFraction float64
	// OutOfServiceFraction is time detached / total (S6 inflation).
	OutOfServiceFraction float64
	Fixed                bool
}

// InflationSweep estimates the degraded-time fractions over a simulated
// horizon for each call rate, with OP-II's policies (the vulnerable
// configuration) and optionally the §8 fixes. Stuck durations and
// recovery times are drawn from the calibrated operator profile; the
// per-call S6 probability is the §7-observed 2.6%.
func InflationSweep(rates []float64, horizon time.Duration, fixed bool, seed int64) []InflationPoint {
	p := netemu.OPII()
	rng := stats.NewRand(seed)
	const pS6 = 5.0 / 190 // §7: 5 S6 events in 190 CSFB calls

	var out []InflationPoint
	for _, rate := range rates {
		calls := int(rate * horizon.Hours())
		var stuck, oos time.Duration
		for i := 0; i < calls; i++ {
			if fixed {
				// CSFB tag: immediate return; MME recovery: no S6.
				continue
			}
			stuck += p.StuckReturn.Sample(rng)
			if rng.Float64() < pS6 {
				oos += p.Reattach.Sample(rng)
			}
		}
		clamp := func(d time.Duration) float64 {
			f := d.Seconds() / horizon.Seconds()
			if f > 1 {
				return 1
			}
			return f
		}
		out = append(out, InflationPoint{
			CallsPerHour:         rate,
			DegradedFraction:     clamp(stuck),
			OutOfServiceFraction: clamp(oos),
			Fixed:                fixed,
		})
	}
	return out
}

// RenderInflation renders the sweep with and without the fixes.
func RenderInflation(without, with []InflationPoint) string {
	var b strings.Builder
	b.WriteString("Exploit-inflation assessment (§7): victim degradation vs incoming CSFB call rate (OP-II)\n")
	fmt.Fprintf(&b, "%-12s %-22s %-22s %s\n", "calls/hour", "stuck-in-3G (broken)", "out-of-service (broken)", "with §8 fixes")
	for i, w := range without {
		fixedNote := "0.0% / 0.0%"
		if i < len(with) {
			fixedNote = fmt.Sprintf("%.1f%% / %.1f%%", with[i].DegradedFraction*100, with[i].OutOfServiceFraction*100)
		}
		fmt.Fprintf(&b, "%-12.0f %-22s %-22s %s\n",
			w.CallsPerHour,
			fmt.Sprintf("%.1f%%", w.DegradedFraction*100),
			fmt.Sprintf("%.1f%%", w.OutOfServiceFraction*100),
			fixedNote)
	}
	return b.String()
}
