package core

import (
	"fmt"

	"cnetverifier/internal/check"
	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/names"
	"cnetverifier/internal/props"
	"cnetverifier/internal/protocols/gmm"
	"cnetverifier/internal/protocols/rrc3g"
	"cnetverifier/internal/protocols/sm"
	"cnetverifier/internal/types"
)

// MultiUEWorld composes n independent copies of the S4 PS stack
// (GMM + SM, device and SGSN side) in one world. Each copy lives in
// its own namespace: process names carry a "ue<k>"/"sgsn<k>" element
// prefix, peers are wired instance-locally, and every global is
// rewritten by fsm.NamespaceGlobals, so the copies share no context at
// all — the worst case for the raw interleaving fixpoint (the product
// of n identical state spaces) and the best case for the cluster
// decomposition of check.Options.POR, which the static effect analysis
// proves apart and explores as n separate projections (the sum).
//
// This is the scaling shape the paper hits when screening multi-device
// scenarios (§7: several UEs under one SGSN interact only through
// shared infrastructure, not through each other's NAS state), and the
// world the ci POR gate screens.
func MultiUEWorld(n int, fixed bool) Scoped {
	if n < 1 {
		panic(fmt.Sprintf("core: MultiUEWorld: need at least 1 UE, got %d", n))
	}
	globals := make(map[string]int, 2*n)
	procs := make([]model.ProcConfig, 0, 4*n)
	var events []model.EnvEvent
	properties := make([]check.Property, 0, n)
	for k := 1; k <= n; k++ {
		ns := fmt.Sprintf("ue%d", k)
		ueGMM := fmt.Sprintf("ue%d.gmm", k)
		sgsnGMM := fmt.Sprintf("sgsn%d.gmm", k)
		ueSM := fmt.Sprintf("ue%d.sm", k)
		sgsnSM := fmt.Sprintf("sgsn%d.sm", k)
		globals[names.Namespaced(names.GSys, ns)] = int(types.SysNone)
		globals[names.Namespaced(names.GModulation, ns)] = rrc3g.Mod64QAM
		procs = append(procs,
			model.ProcConfig{Name: ueGMM, Spec: fsm.NamespaceGlobals(
				gmm.DeviceSpec(gmm.DeviceOptions{FixParallelUpdate: fixed, Peer: sgsnGMM}), ns)},
			model.ProcConfig{Name: sgsnGMM, Spec: fsm.NamespaceGlobals(
				gmm.SGSNSpec(gmm.SGSNOptions{Peer: ueGMM}), ns)},
			model.ProcConfig{Name: ueSM, Spec: fsm.NamespaceGlobals(
				sm.DeviceSpec(sm.DeviceOptions{FixParallelUpdate: fixed, Peer: sgsnSM}), ns)},
			model.ProcConfig{Name: sgsnSM, Spec: fsm.NamespaceGlobals(
				sm.SGSNSpec(sm.SGSNOptions{Peer: ueSM}), ns)},
		)
		events = append(events,
			env(ueGMM, types.MsgPowerOn),
			env(ueGMM, types.MsgUserMove),
			env(ueSM, types.MsgUserDataOn),
		)
		properties = append(properties, props.DataServiceOKIn(ns))
	}
	w := mustWorld(model.Config{Globals: globals, Procs: procs})
	if err := w.SetSymmetry(multiUESymmetry(n)); err != nil {
		panic(fmt.Sprintf("core: MultiUEWorld: %v", err))
	}
	return Scoped{
		Finding:  S4,
		Fixed:    fixed,
		World:    w,
		Scenario: check.StaticScenario(events),
		Props:    properties,
		Options:  check.Options{MaxDepth: 48, MaxStates: 1 << 20},
	}
}

// multiUESymmetry declares the replica structure shared by both
// multi-UE worlds: one group of n replicas, each owning a UE's four
// processes (role order fixed), the "ue<k>" globals namespace, and the
// "ue<k>"/"sgsn<k>" name atoms for violation rewriting. The scenario
// offers the same events to every replica and each stack is wired
// instance-locally, so exchanging replicas maps reachable states onto
// reachable states — the soundness precondition of Options.Symmetry.
func multiUESymmetry(n int) *model.Symmetry {
	g := model.SymGroup{Replicas: make([]model.SymReplica, 0, n)}
	for k := 1; k <= n; k++ {
		ue := fmt.Sprintf("ue%d", k)
		sgsn := fmt.Sprintf("sgsn%d", k)
		g.Replicas = append(g.Replicas, model.SymReplica{
			Procs: []string{ue + ".gmm", sgsn + ".gmm", ue + ".sm", sgsn + ".sm"},
			NS:    ue,
			Atoms: []string{ue, sgsn},
		})
	}
	return &model.Symmetry{Groups: []model.SymGroup{g}}
}

// MultiUEWorldShared composes n copies of the S4 PS stack that all
// attach through ONE shared core context block: the PDP and EPS session
// globals (g.pdp / g.eps — the HSS-backed per-subscriber store
// collapsed to a single MME/HSS context, §5.1) stay un-namespaced
// while every other global is rewritten per UE. The static effect
// analysis then sees every stack read and write g.pdp, so the
// may-interact relation is connected, the cluster decomposition of
// check.Options.POR degenerates to a single cluster, and POR alone
// buys nothing — exactly the coupled case ROADMAP names. The UEs are
// still interchangeable, so Options.Symmetry collapses the ~n!
// permutation blowup instead: the world is the acceptance vehicle for
// the UE-symmetry canonicalization (ci sym gate, the bench's
// screen-sym-shared4 workload).
//
// The S4 HOL-blocking defect stays per-UE (g.<ns>.dataDelayed), so the
// defective world reports one DataService_OK violation per UE, like
// MultiUEWorld.
func MultiUEWorldShared(n int, fixed bool) Scoped {
	if n < 1 {
		panic(fmt.Sprintf("core: MultiUEWorldShared: need at least 1 UE, got %d", n))
	}
	globals := map[string]int{names.GPDP: 0, names.GEPS: 0}
	procs := make([]model.ProcConfig, 0, 4*n)
	var events []model.EnvEvent
	properties := make([]check.Property, 0, n)
	for k := 1; k <= n; k++ {
		ns := fmt.Sprintf("ue%d", k)
		ueGMM := fmt.Sprintf("ue%d.gmm", k)
		sgsnGMM := fmt.Sprintf("sgsn%d.gmm", k)
		ueSM := fmt.Sprintf("ue%d.sm", k)
		sgsnSM := fmt.Sprintf("sgsn%d.sm", k)
		globals[names.Namespaced(names.GSys, ns)] = int(types.SysNone)
		globals[names.Namespaced(names.GModulation, ns)] = rrc3g.Mod64QAM
		procs = append(procs,
			model.ProcConfig{Name: ueGMM, Spec: fsm.NamespaceGlobalsShared(
				gmm.DeviceSpec(gmm.DeviceOptions{FixParallelUpdate: fixed, Peer: sgsnGMM}), ns,
				names.GPDP, names.GEPS)},
			model.ProcConfig{Name: sgsnGMM, Spec: fsm.NamespaceGlobalsShared(
				gmm.SGSNSpec(gmm.SGSNOptions{Peer: ueGMM}), ns,
				names.GPDP, names.GEPS)},
			model.ProcConfig{Name: ueSM, Spec: fsm.NamespaceGlobalsShared(
				sm.DeviceSpec(sm.DeviceOptions{FixParallelUpdate: fixed, Peer: sgsnSM}), ns,
				names.GPDP, names.GEPS)},
			model.ProcConfig{Name: sgsnSM, Spec: fsm.NamespaceGlobalsShared(
				sm.SGSNSpec(sm.SGSNOptions{Peer: ueSM}), ns,
				names.GPDP, names.GEPS)},
		)
		events = append(events,
			env(ueGMM, types.MsgPowerOn),
			env(ueGMM, types.MsgUserMove),
			env(ueSM, types.MsgUserDataOn),
		)
		properties = append(properties, props.DataServiceOKIn(ns))
	}
	w := mustWorld(model.Config{Globals: globals, Procs: procs})
	if err := w.SetSymmetry(multiUESymmetry(n)); err != nil {
		panic(fmt.Sprintf("core: MultiUEWorldShared: %v", err))
	}
	return Scoped{
		Finding:  S4,
		Fixed:    fixed,
		World:    w,
		Scenario: check.StaticScenario(events),
		Props:    properties,
		Options:  check.Options{MaxDepth: 48, MaxStates: 1 << 20},
	}
}
