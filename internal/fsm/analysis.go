package fsm

import (
	"sort"

	"cnetverifier/internal/types"
)

// Edge is one transition viewed structurally (guards ignored), after
// wildcard expansion: Any sources expand over all concrete states and
// Same targets resolve to the source. Index points back at the row of
// Spec.Transitions the edge came from.
type Edge struct {
	From, To State
	On       types.MsgKind
	Name     string
	Guarded  bool
	Index    int
}

// Edges expands the spec's transition table into concrete edges. This
// is the structural graph the internal/lint passes operate on.
func (s *Spec) Edges() []Edge {
	states := s.States()
	var out []Edge
	for i, t := range s.Transitions {
		froms := []State{t.From}
		if t.From == Any {
			froms = states
		}
		for _, f := range froms {
			to := t.To
			if to == Same {
				to = f
			}
			out = append(out, Edge{From: f, To: to, On: t.On, Name: t.Name, Guarded: t.Guard != nil, Index: i})
		}
	}
	return out
}

// Events returns the sorted set of message kinds the spec reacts to.
func (s *Spec) Events() []types.MsgKind {
	set := map[types.MsgKind]bool{}
	for _, t := range s.Transitions {
		set[t.On] = true
	}
	out := make([]types.MsgKind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
