package check

import (
	"cnetverifier/internal/model"
)

// envKey canonicalizes an environment event for set operations.
func envKey(e model.EnvEvent) string {
	return e.Proc + "\x00" + e.Msg.Kind.String() + "\x00" + e.Msg.Cause.String()
}

// filteredScenario offers only the allowed subset of the base
// scenario's events.
type filteredScenario struct {
	base    Scenario
	allowed map[string]bool
}

// Events implements Scenario.
func (f filteredScenario) Events(w *model.World) []model.EnvEvent {
	var out []model.EnvEvent
	for _, e := range f.base.Events(w) {
		if f.allowed[envKey(e)] {
			out = append(out, e)
		}
	}
	return out
}

// Stochastic forwards the base scenario's answer.
func (f filteredScenario) Stochastic() bool { return isStochastic(f.base) }

// EssentialEvents computes the minimal set of environment events that
// still violates the property — the distilled answer to "which user
// and operator actions actually trigger this finding". Starting from
// the distinct env events of the violation's counterexample, it
// greedily removes one event class at a time and re-screens the world
// restricted to the remainder; an event is essential when its removal
// makes the violation unreachable.
//
// The result is what the validation phase needs to stage (the paper
// derives its experiment configurations from the counterexamples,
// §3.1); a smaller trigger set means a simpler experiment.
func EssentialEvents(w *model.World, props []Property, sc Scenario, opt Options, v Violation) ([]model.EnvEvent, error) {
	// Collect the distinct env events of the counterexample, in first-
	// appearance order.
	var events []model.EnvEvent
	seen := map[string]bool{}
	for _, s := range v.Path {
		if s.Kind != model.StepEnv {
			continue
		}
		e := model.EnvEvent{Proc: s.Proc, Msg: s.Msg}
		if k := envKey(e); !seen[k] {
			seen[k] = true
			events = append(events, e)
		}
	}

	violates := func(allowed map[string]bool) (bool, error) {
		res, err := Run(w, props, filteredScenario{base: sc, allowed: allowed}, opt)
		if err != nil {
			return false, err
		}
		return res.Violated(v.Property), nil
	}

	kept := append([]model.EnvEvent(nil), events...)
	for i := 0; i < len(kept); {
		allowed := map[string]bool{}
		for j, e := range kept {
			if j != i {
				allowed[envKey(e)] = true
			}
		}
		still, err := violates(allowed)
		if err != nil {
			return nil, err
		}
		if still {
			// Not essential: drop it and retry from the same index.
			kept = append(kept[:i], kept[i+1:]...)
			continue
		}
		i++
	}
	return kept, nil
}
