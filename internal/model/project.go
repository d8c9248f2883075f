package model

import (
	"fmt"

	"cnetverifier/internal/fsm"
)

// Project builds a sub-world containing only the named processes,
// copying their current machine states, queued messages and channel
// flags from w. The globals slab is copied whole (globals a projected
// process never touches stay constant, so they cost encoding bytes but
// no state-space growth), and OutputTo lists are filtered to the kept
// processes. The relative process order of w is preserved, so step
// enumeration over the projection is deterministic in the same way.
//
// Projection is the mechanism behind check.Options.POR: when the static
// effect analysis (internal/lint/effects) proves a world decomposes
// into non-interacting clusters, the checker explores each cluster's
// projection instead of their product. Environment events targeting
// processes outside the projection are skipped by StepsEnvAppend, so a
// shared scenario drives every projection unchanged.
func (w *World) Project(names []string) (*World, error) {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := w.procIdx[n]; !ok {
			return nil, fmt.Errorf("model: project: unknown process %q", n)
		}
		keep[n] = true
	}
	var sel []int
	for i, p := range w.Procs {
		if keep[p.Name] {
			sel = append(sel, i)
		}
	}
	n := len(sel)
	pw := &World{
		Procs:    make([]*Proc, n),
		Chans:    make([]*Channel, n),
		procIdx:  make(map[string]int, n),
		chanIdx:  make(map[string]int, n),
		procs:    make([]Proc, n),
		chans:    make([]Channel, n),
		machines: make([]fsm.Machine, n),
	}
	pw.Stats = w.Stats
	pw.glay = w.glay
	pw.gvals = append([]int32(nil), w.gvals...)
	for j, i := range sel {
		src := w.Procs[i]
		src.M.CloneInto(&pw.machines[j])
		var outs []string
		for _, dst := range src.OutputTo {
			if keep[dst] {
				outs = append(outs, dst)
			}
		}
		pw.procs[j] = Proc{Name: src.Name, M: &pw.machines[j], OutputTo: outs}
		pw.procIdx[src.Name] = j
		pw.Procs[j] = &pw.procs[j]

		sc := w.Chan(src.Name)
		dc := &pw.chans[j]
		if sc != nil {
			dc.Name, dc.Cap, dc.Lossy, dc.Reorder = sc.Name, sc.Cap, sc.Lossy, sc.Reorder
			dc.set(sc.queue)
		} else {
			dc.Name = src.Name
		}
		pw.chanIdx[src.Name] = j
		pw.Chans[j] = &pw.chans[j]
	}
	// Carry the symmetry descriptor filtered to fully-kept replicas, so
	// POR cluster projections canonicalize within each cluster
	// (check.Options.POR composed with Options.Symmetry).
	if fs := w.filterSymmetry(keep); fs != nil {
		if err := pw.SetSymmetry(fs); err != nil {
			return nil, fmt.Errorf("model: project: %w", err)
		}
	}
	// Carry the virtual clock and the timers owned by kept processes,
	// so POR cluster projections explore the same admissible expiry
	// orderings within each cluster (timers of dropped processes are
	// independent of the cluster by the effect analysis's contract,
	// exactly like their message steps).
	if w.timing != nil {
		var defs []TimerDef
		kept := make(map[string]int32) // old def index -> new
		for i := range w.timing.defs {
			if keep[w.timing.defs[i].Proc] {
				kept[w.timing.defs[i].Proc+"\x00"+w.timing.defs[i].Name] = int32(len(defs))
				defs = append(defs, w.timing.defs[i])
			}
		}
		if len(defs) > 0 {
			if err := pw.EnableTiming(defs); err != nil {
				return nil, fmt.Errorf("model: project: %w", err)
			}
			pw.now = w.now
			pw.timers = pw.timers[:0]
			for _, t := range w.timers {
				d := &w.timing.defs[t.def]
				if ni, ok := kept[d.Proc+"\x00"+d.Name]; ok {
					t.def = ni
					pw.timers = append(pw.timers, t)
				}
			}
		}
	}
	return pw, nil
}
