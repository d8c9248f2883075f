package lint

import (
	"sort"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/lint/effects"
	"cnetverifier/internal/types"
)

// Guards and actions are opaque Go closures, so the message-flow,
// variable and guard-overlap passes cannot inspect them syntactically.
// They read the probe-derived effect summaries of internal/lint/effects
// instead: each transition's guard and action run against a recording
// fsm.Ctx under a small family of constant variable assignments. Facts
// gathered this way are existential ("under some probe this action
// sends AttachAccept to mme.emm"), so the passes use them
// conservatively — a branch no probe reaches is missed, never invented.

// sendFact is one recorded Ctx.Send, channel coordinates dropped.
type sendFact struct {
	To   string
	Kind types.MsgKind
}

// specFacts is the spec-level view of a spec's effect summaries that
// the SPEC/VAR/MSG/GVAR passes work from.
type specFacts struct {
	// Edges are the per-transition summaries, indexed like
	// Spec.Transitions.
	Edges []effects.EdgeEffects
	// Reads/Writes union the per-transition variable accesses, locals
	// and "g."-prefixed globals alike; separation happens at the
	// consumer.
	Reads, Writes map[string]bool
	// Sends/Outputs union the per-transition sends, by (target, kind),
	// and output kinds.
	Sends   []sendFact
	Outputs []types.MsgKind
}

type specFactsKey struct{}

// probeSpec returns the spec's facts, memoized on the spec itself like
// the summaries they are a view of: specs are immutable once built and
// no consumer mutates the facts, so a screening campaign that lints the
// same world before every run builds them once.
func probeSpec(s *fsm.Spec) *specFacts {
	return s.Derived(specFactsKey{}, func() any { return buildSpecFacts(s) }).(*specFacts)
}

func buildSpecFacts(s *fsm.Spec) *specFacts {
	sf := &specFacts{Edges: effects.ForSpec(s).Edges, Reads: make(map[string]bool), Writes: make(map[string]bool)}
	sends, outputs := make(map[sendFact]bool), make(map[types.MsgKind]bool)
	union := func(set map[string]bool, lists ...[]string) {
		for _, names := range lists {
			for _, name := range names {
				set[name] = true
			}
		}
	}
	for _, e := range sf.Edges {
		union(sf.Reads, e.Reads, e.LocalReads)
		union(sf.Writes, e.Writes, e.LocalWrites)
		for _, c := range e.Sends {
			sends[sendFact{To: c.To, Kind: c.Kind}] = true
		}
		for _, c := range e.Outputs {
			outputs[c.Kind] = true
		}
	}
	for f := range sends {
		sf.Sends = append(sf.Sends, f)
	}
	sort.Slice(sf.Sends, func(i, j int) bool {
		if sf.Sends[i].To != sf.Sends[j].To {
			return sf.Sends[i].To < sf.Sends[j].To
		}
		return sf.Sends[i].Kind < sf.Sends[j].Kind
	})
	for k := range outputs {
		sf.Outputs = append(sf.Outputs, k)
	}
	sort.Slice(sf.Outputs, func(i, j int) bool { return sf.Outputs[i] < sf.Outputs[j] })
	return sf
}

// isGlobalName mirrors the fsm engine's scoping rule: names with the
// "g." prefix resolve to world globals.
func isGlobalName(name string) bool {
	return len(name) > 2 && name[0] == 'g' && name[1] == '.'
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
