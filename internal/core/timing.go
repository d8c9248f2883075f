package core

import (
	"fmt"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
	"cnetverifier/internal/names"
	"cnetverifier/internal/types"
)

// TimingProfile selects how WithTiming derives virtual-time timer
// windows for a scoped world.
type TimingProfile int

const (
	// TimingDegenerate arms a periodic zero-width ([0, 0]) timer for
	// exactly the processes whose scenario offers a periodic-timer env
	// event, and removes those events from the scenario. A zero-width
	// always-fireable periodic timer is behaviorally identical to an
	// always-offered env event (same enabled transitions, constant
	// clock and armed set), so the timed state graph is isomorphic to
	// the untimed one — TestEngineEquivalence compares the two screens
	// of every world the profile changes to pin that equivalence.
	TimingDegenerate TimingProfile = iota
	// TimingNAS arms the periodic NAS timers (TAU T3412, LU T3212,
	// RAU T3312) with distinct non-trivial [earliest, latest] windows
	// for every process whose spec consumes periodic-timer events. The
	// checker then explores only the admissible expiry orderings —
	// including expiries untimed scoped worlds never offered (S1's
	// scenario has no periodic events, so its periodic transitions are
	// timing-only behavior).
	TimingNAS
)

// ParseTimingProfile maps a CLI flag value to a profile.
func ParseTimingProfile(s string) (TimingProfile, error) {
	switch s {
	case "degenerate":
		return TimingDegenerate, nil
	case "nas":
		return TimingNAS, nil
	default:
		return 0, fmt.Errorf("unknown timing profile %q (want degenerate or nas)", s)
	}
}

// nasTimer returns the 3GPP periodic-update timer identity and window
// (virtual ticks) for a standard process name. The windows are distinct
// per protocol and overlap-free at first arming, so expiry order is
// partially constrained — the point of timed screening.
func nasTimer(proc string) (string, int64, int64) {
	switch proc {
	case names.UEEMM:
		return "T3412", 10, 12 // periodic TAU
	case names.UEMM:
		return "T3212", 18, 20 // periodic LU
	case names.UEGMM:
		return "T3312", 14, 16 // periodic RAU
	default:
		return "Tperiodic", 12, 15
	}
}

// timedScenario filters a scenario's periodic-timer env events for the
// processes whose expiries are modeled as virtual-time timers instead.
type timedScenario struct {
	inner check.Scenario
	owned map[string]bool
}

func (s timedScenario) Events(w *model.World) []model.EnvEvent {
	return untimed(s.inner.Events(w), s.owned)
}

// Stochastic forwards the inner scenario's check.Stochastic answer.
func (s timedScenario) Stochastic() bool {
	st, ok := s.inner.(check.Stochastic)
	return ok && st.Stochastic()
}

// untimed returns a copy of evs without the periodic-timer events of
// the owned processes.
func untimed(evs []model.EnvEvent, owned map[string]bool) []model.EnvEvent {
	out := make([]model.EnvEvent, 0, len(evs))
	for _, e := range evs {
		if e.Msg.Kind == types.MsgPeriodicTimer && owned[e.Proc] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// WithTiming converts a scoped world to discrete virtual time under the
// given profile: it attaches timer definitions to a copy of the world
// and replaces the scenario's periodic env events for timer-owning
// processes with the timers. The input is not mutated, and a world
// with no periodic behavior is returned unchanged (still untimed).
func WithTiming(s Scoped, profile TimingProfile) (Scoped, error) {
	var defs []model.TimerDef
	owned := make(map[string]bool)
	switch profile {
	case TimingDegenerate:
		for _, e := range s.Scenario.Events(s.World) {
			if e.Msg.Kind != types.MsgPeriodicTimer || owned[e.Proc] {
				continue
			}
			owned[e.Proc] = true
			name, _, _ := nasTimer(e.Proc)
			defs = append(defs, model.TimerDef{
				Name: name, Proc: e.Proc, Msg: e.Msg,
				Lo: 0, Hi: 0, ArmOnStart: true, Periodic: true,
			})
		}
	case TimingNAS:
		for _, p := range s.World.Procs {
			consumes := false
			for _, t := range p.M.Spec().Transitions {
				if t.On == types.MsgPeriodicTimer {
					consumes = true
					break
				}
			}
			if !consumes {
				continue
			}
			owned[p.Name] = true
			name, lo, hi := nasTimer(p.Name)
			defs = append(defs, model.TimerDef{
				Name: name, Proc: p.Name,
				Msg: types.Message{Kind: types.MsgPeriodicTimer},
				Lo:  lo, Hi: hi, ArmOnStart: true, Periodic: true,
			})
		}
	default:
		return Scoped{}, fmt.Errorf("core: unknown timing profile %d", profile)
	}
	if len(defs) == 0 {
		return s, nil
	}
	w := s.World.Clone()
	if err := w.EnableTiming(defs); err != nil {
		return Scoped{}, fmt.Errorf("core: timing %s: %w", s.Finding, err)
	}
	s.World = w
	// A static scenario is filtered once, here, and stays static.
	if static, ok := s.Scenario.(check.StaticScenario); ok {
		s.Scenario = check.StaticScenario(untimed(static, owned))
	} else {
		s.Scenario = timedScenario{inner: s.Scenario, owned: owned}
	}
	return s, nil
}
