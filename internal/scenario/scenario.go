// Package scenario implements the usage-scenario modeling of §3.2.1:
// the space of user demands and operator responses that drives the
// protocol models during screening.
//
// Scenarios with a bounded option set (device switch on/off, every
// accept/reject cause, every inter-system switch technique) are
// enumerated exhaustively; scenarios with unbounded options (mobility,
// traffic arrival) are produced by a seeded run-time signal generator
// that activates them randomly, as in the paper. The sampler offers
// candidate environment events for a world state; the checker explores
// each (DFS/BFS) or samples them (random walk).
package scenario

import (
	"math/rand"

	"cnetverifier/internal/model"
	"cnetverifier/internal/names"
	"cnetverifier/internal/stats"
	"cnetverifier/internal/types"
)

// Event is one candidate environment event with bookkeeping about its
// origin.
type Event struct {
	model.EnvEvent
	// UserDemand is true for §3.2.1 "user demands" (power, calls,
	// data, mobility); false for "operator responses" (rejects,
	// network detach, switch orders, failures).
	UserDemand bool
	// Label names the scenario for coverage accounting.
	Label string
}

// Space is the full §3.2.1 event space over the standard process
// names. Fields toggle scenario families on and off so scoped worlds
// can reuse the sampler.
type Space struct {
	// PowerCycles offers device power on/off.
	PowerCycles bool
	// Calls offers dialing and hang-up.
	Calls bool
	// Data offers data-service on/off.
	Data bool
	// Mobility offers location changes and inter-system switches.
	Mobility bool
	// PDPDeactivations offers every Table 3 deactivation cause at its
	// originator (bounded enumeration).
	PDPDeactivations bool
	// OperatorActions offers network-oriented detach, carrier switch
	// orders and 3G LU failures.
	OperatorActions bool
	// WiFiOffload offers the §5.1.3 WiFi-induced deactivation quirk.
	WiFiOffload bool
	// Timing offers the periodic protocol-timer expiries (TAU/RAU/LU).
	// As plain env events they model a timer firing at an arbitrary
	// instant; core.WithTiming converts them into virtual-time timers
	// with [earliest, latest] windows so the checker explores only the
	// admissible expiry-vs-delivery orderings.
	Timing bool
}

// FullSpace enables every scenario family.
func FullSpace() Space {
	return Space{
		PowerCycles:      true,
		Calls:            true,
		Data:             true,
		Mobility:         true,
		PDPDeactivations: true,
		OperatorActions:  true,
		WiFiOffload:      true,
		Timing:           true,
	}
}

// Family is one toggleable scenario family of Space: its name and a
// Space with only that family enabled.
type Family struct {
	Name  string
	Space Space
}

// Families enumerates every scenario family exactly once. It is the
// single source of truth tying the Space toggles to the event space:
// the family-toggle tests assert FullSpace equals the union of these,
// and the fuzzer's substitution mutator draws per-family event pools
// from it — a family silently dropped from Events would break both.
func Families() []Family {
	return []Family{
		{"power-cycles", Space{PowerCycles: true}},
		{"calls", Space{Calls: true}},
		{"data", Space{Data: true}},
		{"mobility", Space{Mobility: true}},
		{"pdp-deactivations", Space{PDPDeactivations: true}},
		{"operator-actions", Space{OperatorActions: true}},
		{"wifi-offload", Space{WiFiOffload: true}},
		{"timing", Space{Timing: true}},
	}
}

func ev(proc string, kind types.MsgKind, user bool, label string) Event {
	return Event{
		EnvEvent:   model.EnvEvent{Proc: proc, Msg: types.Message{Kind: kind}},
		UserDemand: user,
		Label:      label,
	}
}

func evCause(proc string, kind types.MsgKind, cause types.Cause, user bool, label string) Event {
	e := ev(proc, kind, user, label)
	e.Msg.Cause = cause
	return e
}

// Events returns every candidate event of the space. The world argument
// is accepted for forward compatibility with state-dependent spaces;
// enabledness is decided by the machines' guards, so the full list can
// be offered unconditionally.
func (s Space) Events(w *model.World) []Event {
	var out []Event
	if s.PowerCycles {
		out = append(out,
			ev(names.UEEMM, types.MsgPowerOn, true, "power-on-4g"),
			ev(names.UEGMM, types.MsgPowerOn, true, "power-on-3g-ps"),
			ev(names.UEMM, types.MsgPowerOn, true, "power-on-3g-cs"),
			ev(names.UEEMM, types.MsgPowerOff, true, "power-off"),
		)
	}
	if s.Calls {
		out = append(out,
			ev(names.UECM, types.MsgUserDialCall, true, "dial"),
			ev(names.UECM, types.MsgUserHangUp, true, "hang-up"),
			ev(names.MSCCM, types.MsgPagingRequest, false, "mt-call"),
		)
	}
	if s.Data {
		out = append(out,
			ev(names.UERRC4G, types.MsgUserDataOn, true, "data-on-4g"),
			ev(names.UERRC3G, types.MsgUserDataOn, true, "data-on-3g"),
			ev(names.UESM, types.MsgUserDataOn, true, "pdp-activate"),
			ev(names.UERRC3G, types.MsgUserDataOff, true, "data-off"),
			ev(names.UERRC4G, types.MsgUserDataOff, true, "data-off-4g"),
		)
	}
	if s.Mobility {
		out = append(out,
			ev(names.UEMM, types.MsgUserMove, true, "move-cs"),
			ev(names.UEGMM, types.MsgUserMove, true, "move-ps"),
			ev(names.UEEMM, types.MsgUserMove, true, "move-4g"),
			ev(names.UEGMM, types.MsgInterSystemSwitchCommand, true, "switch-4g-to-3g"),
			ev(names.UEEMM, types.MsgInterSystemCellReselect, true, "reselect-to-4g"),
			ev(names.UERRC3G, types.MsgInterSystemCellReselect, true, "rrc-reselect"),
			ev(names.UERRC4G, types.MsgInterSystemSwitchCommand, true, "coverage-switch"),
		)
	}
	if s.PDPDeactivations {
		for _, row := range types.PDPDeactivationCauses() {
			if row.Originator&types.OriginDevice != 0 {
				out = append(out, evCause(names.UESM, types.MsgDeactivatePDPRequest, row.Cause, true,
					"pdp-deact-ue/"+row.Cause.String()))
			}
			if row.Originator&types.OriginNetwork != 0 {
				out = append(out, evCause(names.SGSNSM, types.MsgNetDetachOrder, row.Cause, false,
					"pdp-deact-net/"+row.Cause.String()))
			}
		}
	}
	if s.OperatorActions {
		out = append(out,
			ev(names.MMEEMM, types.MsgNetDetachOrder, false, "net-detach-4g"),
			ev(names.SGSNGMM, types.MsgNetDetachOrder, false, "net-detach-3g"),
			ev(names.UERRC4G, types.MsgNetSwitchOrder, false, "carrier-switch-order"),
			ev(names.MSCMM, types.MsgLUFailureSignal, false, "lu-failure"),
		)
	}
	if s.WiFiOffload {
		out = append(out, ev(names.UESM, types.MsgWiFiAvailable, true, "wifi-offload"))
	}
	if s.Timing {
		out = append(out,
			ev(names.UEEMM, types.MsgPeriodicTimer, true, "periodic-4g"),
			ev(names.UEMM, types.MsgPeriodicTimer, true, "periodic-cs"),
			ev(names.UEGMM, types.MsgPeriodicTimer, true, "periodic-ps"),
		)
	}
	return out
}

// EnvEvents adapts Events to the checker's model.EnvEvent slice.
func (s Space) EnvEvents(w *model.World) []model.EnvEvent {
	evs := s.Events(w)
	out := make([]model.EnvEvent, len(evs))
	for i, e := range evs {
		out[i] = e.EnvEvent
	}
	return out
}

// Sampler draws random subsets of the space per step — the paper's
// random-sampling approach for the full model, where enumerating every
// combination is unrealistic (§3.2.1). Offering a small random subset
// per state keeps random walks diverse without exploding the per-state
// branching.
type Sampler struct {
	Space Space
	// PerStep is how many candidate events to offer per state
	// (default 4).
	PerStep int
	rng     *rand.Rand
}

// NewSampler builds a seeded sampler over the space.
func NewSampler(space Space, perStep int, seed int64) *Sampler {
	if perStep <= 0 {
		perStep = 4
	}
	return &Sampler{Space: space, PerStep: perStep, rng: stats.NewRand(seed)}
}

// Events implements check.Scenario-compatible sampling.
func (s *Sampler) Events(w *model.World) []model.EnvEvent {
	all := s.Space.Events(w)
	if len(all) <= s.PerStep {
		return toEnv(all)
	}
	idx := s.rng.Perm(len(all))[:s.PerStep]
	picked := make([]Event, 0, s.PerStep)
	for _, i := range idx {
		picked = append(picked, all[i])
	}
	return toEnv(picked)
}

// Stochastic reports that Events draws from the sampler's RNG rather
// than being a function of the world: a search that replays
// counterexamples from step indices refuses it (check.Stochastic).
func (s *Sampler) Stochastic() bool { return true }

func toEnv(evs []Event) []model.EnvEvent {
	out := make([]model.EnvEvent, len(evs))
	for i, e := range evs {
		out[i] = e.EnvEvent
	}
	return out
}

// Coverage tallies which scenario labels a path of steps exercised,
// keyed by label; used to report sampling coverage of the space.
func Coverage(space Space, w *model.World, steps []model.Step) map[string]int {
	byKey := make(map[string]string)
	for _, e := range space.Events(w) {
		byKey[e.Proc+"\x00"+e.Msg.Kind.String()+"\x00"+e.Msg.Cause.String()] = e.Label
	}
	out := make(map[string]int)
	for _, st := range steps {
		if st.Kind != model.StepEnv && st.Kind != model.StepTimer {
			continue
		}
		key := st.Proc + "\x00" + st.Msg.Kind.String() + "\x00" + st.Msg.Cause.String()
		if label, ok := byKey[key]; ok {
			out[label]++
		}
	}
	return out
}
