package lint

import (
	"fmt"
	"strings"

	"cnetverifier/internal/fsm"
)

// Spec runs the single-machine passes (SPEC*, VAR*) over one spec and
// returns the report.
func Spec(s *fsm.Spec, o Options) *Report {
	r := &Report{}
	if err := s.Validate(); err != nil {
		r.add(o, Finding{Rule: RuleSpecInvalid, Severity: Error, Spec: s.Name,
			Detail: err.Error()})
		// A spec that fails Validate may violate invariants the other
		// passes assume (empty states, missing triggers); stop here.
		r.Sort()
		return r
	}
	facts := probeSpec(s)
	lintShadowed(r, o, s)
	lintOverlap(r, o, s, facts)
	lintReachability(r, o, s)
	lintDupNames(r, o, s)
	lintVars(r, o, s, facts)
	r.Sort()
	return r
}

// lintShadowed reports SPEC002: under the runtime engine's first-match
// priority, a transition is dead at a state when an earlier unguarded
// transition matches the same (state, kind). Full shadowing (every
// source state covered) is an error; partial shadowing a warning.
func lintShadowed(r *Report, o Options, s *fsm.Spec) {
	states := s.States()
	sources := func(t fsm.Transition) []fsm.State {
		if t.From == fsm.Any {
			return states
		}
		return []fsm.State{t.From}
	}
	for j, tj := range s.Transitions {
		var shadowed, live []fsm.State
		var by string
		for _, st := range sources(tj) {
			dead := false
			for i := 0; i < j; i++ {
				ti := s.Transitions[i]
				if ti.On != tj.On || ti.Guard != nil {
					continue
				}
				if ti.From == fsm.Any || ti.From == st {
					dead = true
					by = ti.Name
					break
				}
			}
			if dead {
				shadowed = append(shadowed, st)
			} else {
				live = append(live, st)
			}
		}
		if len(shadowed) == 0 {
			continue
		}
		if len(live) == 0 {
			r.add(o, Finding{Rule: RuleShadowed, Severity: Error, Spec: s.Name,
				Transition: tj.Name,
				Detail: fmt.Sprintf("dead under first-match priority: unguarded %q earlier in the table handles %s in every source state",
					by, tj.On)})
		} else {
			r.add(o, Finding{Rule: RuleShadowed, Severity: Warn, Spec: s.Name,
				Transition: tj.Name,
				Detail: fmt.Sprintf("partially shadowed: unguarded %q earlier in the table handles %s in state %s",
					by, tj.On, joinStates(shadowed))})
		}
	}
}

// lintOverlap reports SPEC003: two guarded transitions on the same
// (state, kind) whose guards both held under at least one probe
// assignment. The checker explores both branches (nondeterminism by
// design), but the runtime engine silently resolves the race by table
// order — worth an explicit note.
func lintOverlap(r *Report, o Options, s *fsm.Spec, facts *specFacts) {
	states := s.States()
	applies := func(t fsm.Transition, st fsm.State) bool {
		return t.From == fsm.Any || t.From == st
	}
	type pair struct{ i, j int }
	reported := make(map[pair]bool)
	for _, st := range states {
		for j := range s.Transitions {
			tj := s.Transitions[j]
			if tj.Guard == nil || !applies(tj, st) {
				continue
			}
			for i := 0; i < j; i++ {
				ti := s.Transitions[i]
				if ti.Guard == nil || ti.On != tj.On || !applies(ti, st) || reported[pair{i, j}] {
					continue
				}
				if def, ok := commonProbe(facts.Edges[i].GuardHolds, facts.Edges[j].GuardHolds); ok {
					reported[pair{i, j}] = true
					r.add(o, Finding{Rule: RuleOverlap, Severity: Warn, Spec: s.Name,
						State: string(st), Transition: tj.Name,
						Detail: fmt.Sprintf("guard overlaps with earlier %q on %s (both enabled when variables are %d): checker branches, runtime always picks %q",
							ti.Name, tj.On, def, ti.Name)})
				}
			}
		}
	}
}

func commonProbe(a, b []int) (int, bool) {
	set := make(map[int]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if set[v] {
			return v, true
		}
	}
	return 0, false
}

// lintReachability reports SPEC004 (unreachable states), SPEC005
// (dead-end states) and SPEC006 (states reachable only through guarded
// transitions — if no guard is ever satisfiable at runtime the state is
// dead despite being structurally reachable).
func lintReachability(r *Report, o Options, s *fsm.Spec) {
	edges := s.Edges()
	states := s.States()
	reach := reachable(s.Init, edges, false)
	for _, st := range states {
		if !reach[st] {
			r.add(o, Finding{Rule: RuleUnreachableState, Severity: Error, Spec: s.Name,
				State:  string(st),
				Detail: "no transition path from the initial state reaches this state"})
		}
	}
	outdeg := make(map[fsm.State]int)
	for _, e := range edges {
		outdeg[e.From]++
	}
	for st := range reach {
		if outdeg[st] == 0 {
			r.add(o, Finding{Rule: RuleDeadEndState, Severity: Warn, Spec: s.Name,
				State:  string(st),
				Detail: "reachable state with no outgoing transitions: the machine is stuck forever once there"})
		}
	}
	sure := reachable(s.Init, edges, true)
	for _, st := range states {
		if reach[st] && !sure[st] {
			r.add(o, Finding{Rule: RuleGuardedReach, Severity: Info, Spec: s.Name,
				State:  string(st),
				Detail: "every path into this state crosses a guarded transition; if no guard is satisfiable the state is dead"})
		}
	}
}

// reachable returns the states reachable from init over the edges,
// walking only the unguarded ones when unguardedOnly is set. With every
// edge it over-approximates: a guarded edge is assumed traversable.
func reachable(init fsm.State, edges []fsm.Edge, unguardedOnly bool) map[fsm.State]bool {
	adj := make(map[fsm.State][]fsm.State)
	for _, e := range edges {
		if !unguardedOnly || !e.Guarded {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	seen := map[fsm.State]bool{init: true}
	stack := []fsm.State{init}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nxt := range adj[st] {
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return seen
}

// lintDupNames reports SPEC007: duplicate transition names, which merge
// silently in coverage accounting (SpecCoverage keys on proc/name).
func lintDupNames(r *Report, o Options, s *fsm.Spec) {
	count := make(map[string]int)
	for _, t := range s.Transitions {
		count[t.Name]++
	}
	seen := make(map[string]bool)
	for _, t := range s.Transitions {
		if count[t.Name] > 1 && !seen[t.Name] {
			seen[t.Name] = true
			r.add(o, Finding{Rule: RuleDupTransition, Severity: Warn, Spec: s.Name,
				Transition: t.Name,
				Detail:     fmt.Sprintf("%d transitions share this name: coverage accounting cannot tell them apart", count[t.Name])})
		}
	}
}

// lintVars reports VAR001/VAR002/VAR003 over machine-local variables
// (globals are a world-level concern, see lintGlobals).
func lintVars(r *Report, o Options, s *fsm.Spec, facts *specFacts) {
	for _, name := range sortedNames(facts.Writes) {
		if isGlobalName(name) || facts.Reads[name] {
			continue
		}
		r.add(o, Finding{Rule: RuleVarWriteOnly, Severity: Warn, Spec: s.Name,
			Detail: fmt.Sprintf("local variable %q is written but never read on any probed path", name)})
	}
	for _, name := range sortedNames(facts.Reads) {
		if isGlobalName(name) || facts.Writes[name] {
			continue
		}
		if _, declared := s.Vars[name]; declared {
			continue
		}
		r.add(o, Finding{Rule: RuleVarReadOnly, Severity: Info, Spec: s.Name,
			Detail: fmt.Sprintf("local variable %q is read but never written and not declared in Vars: reads always yield zero", name)})
	}
	for _, name := range sortedNames(boolSet(s.Vars)) {
		if facts.Reads[name] || facts.Writes[name] {
			continue
		}
		r.add(o, Finding{Rule: RuleVarUnused, Severity: Warn, Spec: s.Name,
			Detail: fmt.Sprintf("variable %q is declared in Vars but referenced by no guard or action", name)})
	}
}

func boolSet(vars map[string]int) map[string]bool {
	out := make(map[string]bool, len(vars))
	for k := range vars {
		out[k] = true
	}
	return out
}

func joinStates(sts []fsm.State) string {
	names := make([]string, len(sts))
	for i, st := range sts {
		names[i] = string(st)
	}
	return strings.Join(names, ", ")
}
