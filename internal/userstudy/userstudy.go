// Package userstudy reproduces the two-week, 20-volunteer user study
// of §7 (Table 5) as a stochastic usage simulation.
//
// The paper instrumented real phones; here each virtual participant
// generates calls, mobility, data usage and attaches over simulated
// days, and each finding's occurrence is decided by its *mechanism*
// wherever the mechanism is deterministic (S3: OP-II policy + mobile
// data on; S5: concurrent data traffic during a 3G call), or by a rate
// calibrated to the paper's measurement where the trigger is
// environmental (S1: how often 3G deactivates a PDP context; S4: how
// often a dial lands inside a location update; S6: how often a CSFB
// location update fails; S2: how often attach signaling is lost under
// good coverage).
package userstudy

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"cnetverifier/internal/stats"
)

// Config parameterizes the cohort and the calibrated environmental
// rates. The defaults reproduce §7's observed event counts.
type Config struct {
	// Users4G and Users3G split the 20 volunteers (§7: 12 use
	// 4G-capable phones, 8 use 3G-only phones).
	Users4G, Users3G int
	// Days is the study length (two weeks).
	Days int

	// CallsPerUserPerDay drives call volume. §7 observed 190 CSFB
	// calls from 12 users and 146 3G CS calls from 8 users over 14
	// days: ≈1.13 and ≈1.30 calls/user/day.
	CallsPerUser4GPerDay float64
	CallsPerUser3GPerDay float64

	// PDataOnDuringCSFB is the probability mobile data is enabled
	// during a CSFB call (§7: 103 of 190).
	PDataOnDuringCSFB float64
	// POPIIUser is the fraction of 4G users on OP-II (§7: 64 of the
	// 103 data-on CSFB calls were OP-II's).
	POPIIUser float64
	// PDataTrafficDuringCall is the probability data traffic is
	// actively flowing during a 3G CS call (§7: 113 of 146 → S5).
	PDataTrafficDuringCall float64
	// PPDPDeactInThreeG is the per-switch probability that 3G
	// deactivates the PDP context before the return switch (§7: 4 of
	// 129 data-on switches → S1).
	PPDPDeactInThreeG float64
	// PDialDuringLAU is the probability an outgoing 3G call lands
	// inside an ongoing location-area update (§7: 6 of 79 → S4).
	PDialDuringLAU float64
	// PCSFBLUFailure is the per-CSFB-call probability that a location
	// update fails and propagates (§7: 5 of 190 → S6).
	PCSFBLUFailure float64
	// PAttachSignalLoss is the per-attach probability of lost attach
	// signaling under good coverage (§7: 0 of 30 → S2).
	PAttachSignalLoss float64
	// ExtraSwitchesPerUser4G adds the non-CSFB inter-system switches
	// (§7: 436 total, 380 CSFB-caused; ≈56 from mobility/carrier).
	ExtraSwitchesPerUser4G float64
	// AttachesPerUser is device restarts/auto-recoveries per user over
	// the study (§7: 30 attaches across 20 users).
	AttachesPerUser float64
}

// DefaultConfig returns the §7-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Users4G:                12,
		Users3G:                8,
		Days:                   14,
		CallsPerUser4GPerDay:   190.0 / 12 / 14,
		CallsPerUser3GPerDay:   146.0 / 8 / 14,
		PDataOnDuringCSFB:      103.0 / 190,
		POPIIUser:              64.0 / 103,
		PDataTrafficDuringCall: 113.0 / 146,
		PPDPDeactInThreeG:      4.0 / 129,
		PDialDuringLAU:         6.0 / 79,
		PCSFBLUFailure:         5.0 / 190,
		PAttachSignalLoss:      0.001,
		ExtraSwitchesPerUser4G: 56.0 / 12,
		AttachesPerUser:        30.0 / 20,
	}
}

// Occurrence is one Table 5 row.
type Occurrence struct {
	Finding  string
	Observed bool
	Events   int // numerator
	Exposure int // denominator
}

// Rate returns the occurrence probability.
func (o Occurrence) Rate() float64 {
	if o.Exposure == 0 {
		return 0
	}
	return float64(o.Events) / float64(o.Exposure)
}

func (o Occurrence) String() string {
	return fmt.Sprintf("%s: %.1f%% (%d/%d)", o.Finding, o.Rate()*100, o.Events, o.Exposure)
}

// Result aggregates the study.
type Result struct {
	// Raw event counts mirroring §7's first paragraph.
	CSFBCalls, CSCalls3G, InterSystemSwitches, Attaches int
	// Occurrences are the S1–S6 rows of Table 5, in order.
	Occurrences [6]Occurrence
}

// Table renders the result as a Table 5-style text table.
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "observed: %d CSFB calls, %d 3G CS calls, %d inter-system switches, %d attaches\n",
		r.CSFBCalls, r.CSCalls3G, r.InterSystemSwitches, r.Attaches)
	fmt.Fprintf(&b, "%-8s %-10s %-12s %s\n", "Problem", "Observed", "Occurrence", "(events/exposure)")
	for _, o := range r.Occurrences {
		obs := "no"
		if o.Observed {
			obs = "yes"
		}
		fmt.Fprintf(&b, "%-8s %-10s %-12s (%d/%d)\n", o.Finding, obs,
			fmt.Sprintf("%.1f%%", o.Rate()*100), o.Events, o.Exposure)
	}
	return b.String()
}

// OutgoingCallFraction is the share of 3G CS calls that are
// mobile-originated (§7: 79 of the 146 observed calls) — only an
// outgoing call can land inside an ongoing location update (S4).
const OutgoingCallFraction = 79.0 / 146

// CSFBCallSample is the mechanism outcome of one CSFB call: the §5/§6
// triggers a single 4G voice call can fire. Exposure flags accompany
// the event flags so callers can tally Table 5 denominators without
// re-deriving the mechanism conditions.
type CSFBCallSample struct {
	// DataOn reports mobile data enabled during the call.
	DataOn bool
	// S1Exposed/S1: a data-on switch, and 3G deactivated the PDP
	// context before the return switch (§5.1).
	S1Exposed, S1 bool
	// S3Exposed/S3: data-on exposure, and the OP-II reselection policy
	// keeps the device stuck in 3G (§5.3) — deterministic given the
	// operator, so no extra draw.
	S3Exposed, S3 bool
	// S6: the CSFB location update failed and the failure propagated
	// (§6.3). Every CSFB call is exposed.
	S6 bool
}

// SampleCSFBCall draws the mechanism triggers of one CSFB call. The
// draw order (data-on, then S1 if exposed, then S6) is part of the
// package's determinism contract: Run and the campaign engine consume
// the identical stream.
func (c Config) SampleCSFBCall(rng *rand.Rand, onOPII bool) CSFBCallSample {
	s := CSFBCallSample{DataOn: rng.Float64() < c.PDataOnDuringCSFB}
	if s.DataOn {
		s.S3Exposed = true
		s.S3 = onOPII
		s.S1Exposed = true
		s.S1 = rng.Float64() < c.PPDPDeactInThreeG
	}
	s.S6 = rng.Float64() < c.PCSFBLUFailure
	return s
}

// CSCallSample is the mechanism outcome of one 3G CS call.
type CSCallSample struct {
	// S5: data traffic was flowing during the call, so the shared
	// channel downgraded its modulation (§6.2) — the occurrence rate is
	// the concurrency rate.
	S5 bool
	// Outgoing reports a mobile-originated call; only those are S4
	// exposed.
	Outgoing bool
	// S4Exposed/S4: an outgoing dial, and it landed inside an ongoing
	// location-area update (§6.1).
	S4Exposed, S4 bool
}

// SampleCSCall3G draws the mechanism triggers of one 3G CS call.
func (c Config) SampleCSCall3G(rng *rand.Rand) CSCallSample {
	s := CSCallSample{S5: rng.Float64() < c.PDataTrafficDuringCall}
	s.Outgoing = rng.Float64() < OutgoingCallFraction
	if s.Outgoing {
		s.S4Exposed = true
		s.S4 = rng.Float64() < c.PDialDuringLAU
	}
	return s
}

// SwitchSample is the mechanism outcome of one non-CSFB inter-system
// switch (mobility or carrier-initiated).
type SwitchSample struct {
	// DataOn reports mobile data enabled across the switch (the S1
	// exposure condition).
	DataOn bool
	// S1: 3G deactivated the PDP context before the return switch.
	S1 bool
}

// SampleSwitch draws the S1 trigger of one non-CSFB switch.
func (c Config) SampleSwitch(rng *rand.Rand) SwitchSample {
	s := SwitchSample{DataOn: rng.Float64() < c.PDataOnDuringCSFB}
	if s.DataOn {
		s.S1 = rng.Float64() < c.PPDPDeactInThreeG
	}
	return s
}

// SampleAttach draws the S2 trigger of one attach: whether attach
// signaling was lost under good coverage (§4).
func (c Config) SampleAttach(rng *rand.Rand) bool {
	return rng.Float64() < c.PAttachSignalLoss
}

// poisson draws a Poisson variate via Knuth inversion (small means).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// Run simulates the study with the configuration and seed.
func Run(cfg Config, seed int64) Result {
	return RunWith(cfg, stats.NewRand(seed))
}

// RunWith simulates the study drawing every trigger from the supplied
// generator — the caller owns the seed, so a larger harness (the
// campaign engine, a sweep) can thread one deterministic stream through
// the whole run instead of each phase constructing its own.
func RunWith(cfg Config, rng *rand.Rand) Result {
	var res Result

	var s1Events, s1Exposure int
	var s2Events, s2Exposure int
	var s3Events, s3Exposure int
	var s4Events, s4Exposure int
	var s5Events, s5Exposure int
	var s6Events, s6Exposure int

	// 4G users: CSFB calls, inter-system switches, S1/S3/S6 exposure.
	for u := 0; u < cfg.Users4G; u++ {
		onOPII := rng.Float64() < cfg.POPIIUser
		for d := 0; d < cfg.Days; d++ {
			calls := poisson(rng, cfg.CallsPerUser4GPerDay)
			for c := 0; c < calls; c++ {
				res.CSFBCalls++
				res.InterSystemSwitches += 2 // fall to 3G and return
				s := cfg.SampleCSFBCall(rng, onOPII)
				if s.S3Exposed {
					s3Exposure++
					if s.S3 {
						s3Events++
					}
				}
				if s.S1Exposed {
					s1Exposure++
					if s.S1 {
						s1Events++
					}
				}
				s6Exposure++
				if s.S6 {
					s6Events++
				}
			}
		}
		// Mobility/carrier-initiated switches (no CSFB).
		extra := poisson(rng, cfg.ExtraSwitchesPerUser4G)
		res.InterSystemSwitches += extra
		for i := 0; i < extra; i++ {
			if sw := cfg.SampleSwitch(rng); sw.DataOn {
				s1Exposure++
				if sw.S1 {
					s1Events++
				}
			}
		}
	}

	// 3G users: CS calls, S4/S5 exposure.
	for u := 0; u < cfg.Users3G; u++ {
		for d := 0; d < cfg.Days; d++ {
			calls := poisson(rng, cfg.CallsPerUser3GPerDay)
			for c := 0; c < calls; c++ {
				res.CSCalls3G++
				s := cfg.SampleCSCall3G(rng)
				s5Exposure++
				if s.S5 {
					s5Events++
				}
				if s.S4Exposed {
					s4Exposure++
					if s.S4 {
						s4Events++
					}
				}
			}
		}
	}

	// Attaches: restarts and out-of-service recoveries (S2 exposure).
	totalUsers := cfg.Users4G + cfg.Users3G
	for u := 0; u < totalUsers; u++ {
		n := poisson(rng, cfg.AttachesPerUser)
		res.Attaches += n
		for i := 0; i < n; i++ {
			s2Exposure++
			if cfg.SampleAttach(rng) {
				s2Events++
			}
		}
	}

	res.Occurrences = [6]Occurrence{
		{Finding: "S1", Observed: s1Events > 0, Events: s1Events, Exposure: s1Exposure},
		{Finding: "S2", Observed: s2Events > 0, Events: s2Events, Exposure: s2Exposure},
		{Finding: "S3", Observed: s3Events > 0, Events: s3Events, Exposure: s3Exposure},
		{Finding: "S4", Observed: s4Events > 0, Events: s4Events, Exposure: s4Exposure},
		{Finding: "S5", Observed: s5Events > 0, Events: s5Events, Exposure: s5Exposure},
		{Finding: "S6", Observed: s6Events > 0, Events: s6Events, Exposure: s6Exposure},
	}
	return res
}
