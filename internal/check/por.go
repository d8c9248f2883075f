package check

import (
	"fmt"

	"cnetverifier/internal/lint/effects"
	"cnetverifier/internal/model"
)

// runPOR is the partial-order-reduced search (Options.POR): cluster
// decomposition over the static may-interact relation.
//
// The effect analysis partitions the world's processes into clusters —
// connected components of the proc-level may-interact relation. Two
// processes in different clusters share no global (in any read/write
// or write/write combination) and neither sends nor outputs into the
// other, so every step of one commutes with every step of the other:
// the full product's reachable states are exactly the per-cluster
// reachable states glued together, and any interleaving of per-cluster
// schedules realizes any reachable product state. Screening each
// cluster's projection therefore finds the same (property, description)
// violation set as screening the product, while visiting Σ|Ci| states
// instead of Π|Ci|.
//
// This is the sleep-set idea taken to its static fixpoint: instead of
// recording per-state which commuting siblings need no re-exploration,
// the analysis proves whole process groups commute everywhere and never
// interleaves them at all. (Per-state sleep sets add nothing under the
// checker's visited-state dedup — see DESIGN.md for why the dynamic
// variants were rejected.)
//
// With a single cluster the decomposition is the identity and the run
// falls through to the plain engine, byte-identical results included.
func runPOR(w *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	sub := opt
	sub.POR = false

	clusters := effects.Analyze(w).ClusterNames()
	if len(clusters) <= 1 {
		return dispatch(w, props, sc, sub)
	}

	merged := &Result{Covered: make(map[string]int)}
	for _, names := range clusters {
		pw, err := w.Project(names)
		if err != nil {
			return nil, fmt.Errorf("check: por: %w", err)
		}
		res, err := dispatch(pw, props, sc, sub)
		if err != nil {
			return nil, fmt.Errorf("check: por: cluster %v: %w", names, err)
		}
		merged.States += res.States
		merged.Transitions += res.Transitions
		merged.Misrouted += res.Misrouted
		merged.Dropped += res.Dropped
		merged.MaxDepth = max(merged.MaxDepth, res.MaxDepth)
		merged.MaxFrontier = max(merged.MaxFrontier, res.MaxFrontier)
		merged.Truncated = merged.Truncated || res.Truncated
		// Each cluster run owns a visited table; the compaction
		// omission bound sums (union bound over clusters) and the
		// table diagnostics fold together.
		if merged.Omission += res.Omission; merged.Omission > 1 {
			merged.Omission = 1
		}
		if res.Visited != nil {
			if merged.Visited == nil {
				merged.Visited = &VisitedStats{}
			}
			merged.Visited.merge(res.Visited)
		}
		for k, n := range res.Covered {
			merged.Covered[k] += n
		}
		merged.Violations = append(merged.Violations, res.Violations...)
		if opt.StopAtFirst && len(merged.Violations) > 0 {
			break
		}
	}
	// Clusters report in canonical order already (ClusterNames is
	// deterministic), but a property violated in its initial state can
	// surface from several projections: dedupe on (property, desc),
	// which also sorts into the parallel engine's canonical order.
	merged.Violations = DedupeViolations(merged.Violations)
	return merged, nil
}
