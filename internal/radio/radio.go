// Package radio models the physical-layer substrate the paper's
// validation experiments run over: modulation schemes and their peak
// rates on the 3G shared channel (§6.2), a path-loss RSSI model over
// parameterized driving routes (§6.1, Figure 7), hour-of-day load
// factors (Figure 9), and seeded loss injection for the §9 prototype
// experiments (Figure 12).
//
// The paper measured operational networks; this package replaces them
// with an explicit model whose parameters are calibrated to the
// numbers the paper reports (21 Mbps peak at 64QAM vs 11 Mbps at
// 16QAM, RSSI between -51 and -95 dBm along Route-1, and so on), so
// the experiment harnesses reproduce the same shapes.
package radio

import (
	"fmt"
	"math"
	"math/rand"

	"cnetverifier/internal/stats"
)

// Mbps is a data rate in megabits per second.
type Mbps = float64

// Modulation is a modulation scheme on the 3G shared channel.
type Modulation uint8

// Modulation schemes, ordered by rate.
const (
	QPSK Modulation = iota
	QAM16
	QAM64
)

func (m Modulation) String() string {
	switch m {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", uint8(m))
	}
}

// Order returns the constellation size (4, 16, 64).
func (m Modulation) Order() int {
	switch m {
	case QPSK:
		return 4
	case QAM16:
		return 16
	case QAM64:
		return 64
	default:
		return 0
	}
}

// PeakDL returns the theoretical downlink peak rate (§6.2: "before the
// voice call ... 64QAM, thus offering downlink speed up to 21Mbps ...
// 16QAM, thus reducing the theoretical downlink speed to 11Mbps").
func (m Modulation) PeakDL() Mbps {
	switch m {
	case QPSK:
		return 5.3
	case QAM16:
		return 11.0
	case QAM64:
		return 21.1
	default:
		return 0
	}
}

// PeakUL returns the theoretical uplink peak rate (HSUPA-class).
func (m Modulation) PeakUL() Mbps {
	switch m {
	case QPSK:
		return 2.0
	case QAM16:
		return 5.76
	case QAM64:
		return 11.5
	default:
		return 0
	}
}

// CSVoiceRate is the best 3G CS voice codec rate (§6.2 cites 12.2 kbps
// AMR).
const CSVoiceRate Mbps = 0.0122

// SharedChannel models the 3G downlink/uplink shared channel carrying
// both CS voice and PS data (§6.2). When Coupled (the operational
// practice of both carriers), an active CS call forces the whole
// channel to the voice-safe modulation; when decoupled (§8 fix), PS
// keeps its own modulation.
type SharedChannel struct {
	// Coupled selects the carriers' single-modulation sharing.
	Coupled bool
	// DataMod is the modulation PS data would use on its own.
	DataMod Modulation
	// VoiceMod is the robust modulation CS voice requires.
	VoiceMod Modulation
	// CallActive reports an ongoing CS call.
	CallActive bool
	// VoiceOverheadFactor is the extra scheduling/resilience penalty a
	// concurrent call imposes beyond the modulation downgrade; the
	// paper's measured drops (73.9–96.1% DL/UL) exceed the pure
	// 21→11 Mbps modulation ratio, so carriers evidently reserve
	// channel shares for voice resilience. 0 = no extra penalty.
	VoiceOverheadFactor float64
}

// NewSharedChannel returns a coupled channel at 64QAM data / 16QAM
// voice with no extra overhead.
func NewSharedChannel() *SharedChannel {
	return &SharedChannel{Coupled: true, DataMod: QAM64, VoiceMod: QAM16}
}

// CurrentMod returns the modulation PS data experiences right now.
func (ch *SharedChannel) CurrentMod() Modulation {
	if ch.Coupled && ch.CallActive {
		return ch.VoiceMod
	}
	return ch.DataMod
}

// penalty returns the multiplicative rate factor applied during a call.
func (ch *SharedChannel) penalty() float64 {
	if !ch.CallActive || !ch.Coupled {
		return 1
	}
	f := 1 - ch.VoiceOverheadFactor
	if f < 0 {
		return 0
	}
	return f
}

// DataRateDL returns the PS downlink rate under the load factor
// (0..1, the fraction of the shared channel the user obtains).
func (ch *SharedChannel) DataRateDL(load float64) Mbps {
	return ch.CurrentMod().PeakDL() * clamp01(load) * ch.penalty()
}

// DataRateUL returns the PS uplink rate under the load factor.
func (ch *SharedChannel) DataRateUL(load float64) Mbps {
	return ch.CurrentMod().PeakUL() * clamp01(load) * ch.penalty()
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// PathLoss is a log-distance path-loss RSSI model with optional
// log-normal shadowing.
type PathLoss struct {
	// TxPowerDBm is the BS transmit power as seen at the reference
	// distance.
	TxPowerDBm float64
	// RefLossDB is the loss at 1 mile.
	RefLossDB float64
	// Exponent is the path-loss exponent (2 free space, ~3.5 urban).
	Exponent float64
	// ShadowSigmaDB is the standard deviation of log-normal shadowing;
	// 0 disables it.
	ShadowSigmaDB float64
}

// DefaultPathLoss is calibrated so a 15-mile drive with BSes every ~2
// miles stays within the good-signal range the paper measured on
// Route-1 ([-51, -95] dBm, §6.1.2).
func DefaultPathLoss() PathLoss {
	return PathLoss{TxPowerDBm: -86, RefLossDB: 6, Exponent: 3.2, ShadowSigmaDB: 3}
}

// RSSIAt returns the received signal strength at the given distance in
// miles from the serving BS, with shadowing drawn from rng when
// enabled (pass nil for the deterministic mean).
func (p PathLoss) RSSIAt(distMiles float64, rng *rand.Rand) float64 {
	if distMiles < 0.05 {
		distMiles = 0.05
	}
	rssi := p.TxPowerDBm - p.RefLossDB - 10*p.Exponent*math.Log10(distMiles)
	if p.ShadowSigmaDB > 0 && rng != nil {
		rssi += rng.NormFloat64() * p.ShadowSigmaDB
	}
	return rssi
}

// WeakSignalThreshold is the RSSI below which the paper places its
// weak-coverage loss experiments (§5.2.2: "RSSI is below -110dBm").
const WeakSignalThreshold = -110.0

// Route is a driving route with serving base stations and
// location-area boundaries along it.
type Route struct {
	Name string
	// LengthMiles is the total route length.
	LengthMiles float64
	// BSMileposts are serving BS positions; the device attaches to the
	// nearest one.
	BSMileposts []float64
	// UpdateMileposts are where location-area boundaries are crossed,
	// triggering location updates (Figure 7 observed them at 9.5 and
	// 13.2 miles on Route-1).
	UpdateMileposts []float64
}

// Route1 is the paper's 15-mile freeway route with the two observed
// location-update points.
func Route1() Route {
	return Route{
		Name:            "Route-1",
		LengthMiles:     15,
		BSMileposts:     []float64{0.5, 2.5, 4.5, 6.5, 8.5, 10.5, 12.5, 14.5},
		UpdateMileposts: []float64{9.5, 13.2},
	}
}

// Route2 is the paper's 28.3-mile freeway+local route.
func Route2() Route {
	return Route{
		Name:        "Route-2",
		LengthMiles: 28.3,
		BSMileposts: []float64{0.5, 2.5, 4.5, 6.5, 8.5, 10.5, 12.5, 14.5, 16.0, 17.5, 19.0, 20.5, 22.0, 23.5, 25.0, 26.5, 28.0},
		UpdateMileposts: []float64{
			6.8, 13.9, 19.4, 24.8,
		},
	}
}

// ServingBSDistance returns the distance to the nearest BS at the given
// milepost.
func (r Route) ServingBSDistance(milepost float64) float64 {
	best := math.Inf(1)
	for _, bs := range r.BSMileposts {
		if d := math.Abs(milepost - bs); d < best {
			best = d
		}
	}
	return best
}

// RSSIAt returns the RSSI observed at a milepost under the path-loss
// model.
func (r Route) RSSIAt(milepost float64, p PathLoss, rng *rand.Rand) float64 {
	return p.RSSIAt(r.ServingBSDistance(milepost), rng)
}

// CrossesUpdate reports whether driving from to milepost a to b crosses
// a location-area boundary.
func (r Route) CrossesUpdate(a, b float64) bool {
	if b < a {
		a, b = b, a
	}
	for _, u := range r.UpdateMileposts {
		if a < u && u <= b {
			return true
		}
	}
	return false
}

// LoadFactor returns the fraction of the shared channel a user obtains
// at the given hour of day (0–23), modeling the diurnal congestion
// visible in Figure 9 (the paper's 8am–2am measurement windows). Quiet
// night hours approach the peak; evening busy hours are the trough.
func LoadFactor(hour int) float64 {
	h := ((hour % 24) + 24) % 24
	switch {
	case h >= 23 || h < 2: // late night
		return 0.70
	case h >= 2 && h < 8: // early morning
		return 0.75
	case h >= 8 && h < 11:
		return 0.60
	case h >= 11 && h < 14:
		return 0.52
	case h >= 14 && h < 17:
		return 0.55
	case h >= 17 && h < 20: // evening peak
		return 0.45
	default: // 20–23
		return 0.50
	}
}

// Dropper injects signaling loss at a configured rate with a seeded
// RNG, for the Figure 12 drop-rate sweeps.
type Dropper struct {
	rate float64
	rng  *rand.Rand
}

// NewDropper returns a dropper losing the given fraction (0..1) of
// messages, deterministic per seed.
func NewDropper(rate float64, seed int64) *Dropper {
	return &Dropper{rate: clamp01(rate), rng: stats.NewRand(seed)}
}

// Rate returns the configured drop rate.
func (d *Dropper) Rate() float64 { return d.rate }

// Drop reports whether the next message should be lost.
func (d *Dropper) Drop() bool {
	if d.rate == 0 {
		return false
	}
	return d.rng.Float64() < d.rate
}
