package core

import (
	"fmt"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
	"cnetverifier/internal/names"
	"cnetverifier/internal/props"
	"cnetverifier/internal/protocols/cm"
	"cnetverifier/internal/protocols/emm"
	"cnetverifier/internal/protocols/esm"
	"cnetverifier/internal/protocols/gmm"
	"cnetverifier/internal/protocols/mm"
	"cnetverifier/internal/protocols/rrc3g"
	"cnetverifier/internal/protocols/rrc4g"
	"cnetverifier/internal/protocols/sm"
	"cnetverifier/internal/types"
)

// Scoped bundles a scoped world with the scenario that drives it and
// the properties it is checked against — one per design finding,
// mirroring how the paper configures validation experiments from
// screening counterexamples (§3.1).
type Scoped struct {
	// Finding is the instance this world screens for.
	Finding FindingID
	// Fixed reports whether the §8 fixes are enabled.
	Fixed bool
	// World is the initial state.
	World *model.World
	// Scenario offers the usage-scenario events (§3.2.1).
	Scenario check.Scenario
	// Props are the properties to check (§3.2.2).
	Props []check.Property
	// Options are suggested checker bounds for this world.
	Options check.Options
}

func env(proc string, kind types.MsgKind) model.EnvEvent {
	return model.EnvEvent{Proc: proc, Msg: types.Message{Kind: kind}}
}

func envCause(proc string, kind types.MsgKind, cause types.Cause) model.EnvEvent {
	return model.EnvEvent{Proc: proc, Msg: types.Message{Kind: kind, Cause: cause}}
}

func mustWorld(cfg model.Config) *model.World {
	w, err := model.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("core: bad world config: %v", err))
	}
	return w
}

func baseGlobals() map[string]int {
	return map[string]int{
		names.GSys:        int(types.SysNone),
		names.GModulation: rrc3g.Mod64QAM,
	}
}

// S1World builds the cross-system context-loss world of §5.1: EMM/ESM
// in 4G, GMM/SM in 3G, with the PDP/EPS contexts shared through the
// global store. Usage scenario: 4G attach → 4G→3G switch (context
// migration) → PDP deactivation in 3G (device- or network-originated,
// Table 3) → 3G→4G return (TAU).
func S1World(fixed bool) Scoped {
	w := mustWorld(model.Config{
		Globals: baseGlobals(),
		Procs: []model.ProcConfig{
			{Name: names.UEEMM, Spec: emm.DeviceSpec(emm.DeviceOptions{FixReactivateBearer: fixed}), OutputTo: []string{names.UEESM}},
			{Name: names.MMEEMM, Spec: emm.MMESpec(emm.MMEOptions{FixReactivateBearer: fixed}), OutputTo: []string{names.MMEESM}},
			{Name: names.UEESM, Spec: esm.DeviceSpec(esm.DeviceOptions{})},
			{Name: names.MMEESM, Spec: esm.MMESpec(esm.MMEOptions{})},
			{Name: names.UEGMM, Spec: gmm.DeviceSpec(gmm.DeviceOptions{})},
			{Name: names.SGSNGMM, Spec: gmm.SGSNSpec(gmm.SGSNOptions{})},
			{Name: names.UESM, Spec: sm.DeviceSpec(sm.DeviceOptions{})},
			{Name: names.SGSNSM, Spec: sm.SGSNSpec(sm.SGSNOptions{})},
		},
	})
	sc := check.StaticScenario{
		env(names.UEEMM, types.MsgPowerOn),
		env(names.UEGMM, types.MsgInterSystemSwitchCommand),
		envCause(names.UESM, types.MsgDeactivatePDPRequest, types.CauseQoSNotAccepted),
		envCause(names.SGSNSM, types.MsgNetDetachOrder, types.CauseIncompatiblePDPContext),
		env(names.UESM, types.MsgWiFiAvailable),
		env(names.UEEMM, types.MsgInterSystemCellReselect),
	}
	return Scoped{
		Finding:  S1,
		Fixed:    fixed,
		World:    w,
		Scenario: sc,
		Props:    []check.Property{props.PacketServiceOK()},
		Options:  check.Options{MaxDepth: 22, MaxStates: 1 << 18},
	}
}

// S2World builds the cross-layer unreliable-signaling world of §5.2:
// EMM over an RRC transfer that may lose signals (lossy device and MME
// inboxes) and reorder them (signals relayed through different base
// stations). The §8 fix — the reliable-transfer shim — is modeled by
// its guarantee: a loss-free, in-order channel with duplicate
// suppression.
func S2World(fixed bool) Scoped {
	w := mustWorld(model.Config{
		Globals: baseGlobals(),
		Procs: []model.ProcConfig{
			{Name: names.UEEMM, Spec: emm.DeviceSpec(emm.DeviceOptions{}), Lossy: !fixed},
			{Name: names.MMEEMM, Spec: emm.MMESpec(emm.MMEOptions{}), Lossy: !fixed, Reorder: !fixed},
		},
	})
	sc := check.StaticScenario{
		env(names.UEEMM, types.MsgPowerOn),
		// The NAS timer drives both attach retransmission (the S2
		// duplicate source) and periodic TAUs (which surface the
		// lost-signal inconsistency).
		env(names.UEEMM, types.MsgPeriodicTimer),
	}
	return Scoped{
		Finding:  S2,
		Fixed:    fixed,
		World:    w,
		Scenario: sc,
		Props:    []check.Property{props.PacketServiceOK()},
		Options:  check.Options{MaxDepth: 14, MaxStates: 1 << 18},
	}
}

// S3World builds the cross-domain/cross-system RRC-state world of §5.3:
// a CSFB call dialed in 4G with a concurrent high-rate data session,
// under a configurable carrier switching option (names.SwitchRedirect
// for OP-I, names.SwitchReselect for OP-II).
func S3World(fixed bool, switchOpt int) Scoped {
	g := baseGlobals()
	g[names.GSys] = int(types.Sys4G)
	g[names.GSwitchOpt] = switchOpt
	w := mustWorld(model.Config{
		Globals: g,
		Procs: []model.ProcConfig{
			{Name: names.UECM, Spec: cm.DeviceSpec(cm.DeviceOptions{DirectToMSC: true}), OutputTo: []string{names.UERRC3G, names.UERRC4G}},
			{Name: names.UERRC3G, Spec: rrc3g.DeviceSpec(rrc3g.DeviceOptions{FixCSFBTag: fixed}), OutputTo: []string{names.UECM}},
			{Name: names.UERRC4G, Spec: rrc4g.DeviceSpec(rrc4g.DeviceOptions{}), OutputTo: []string{names.UERRC3G}},
			{Name: names.MSCCM, Spec: cm.MSCSpec(cm.MSCOptions{})},
		},
	})
	sc := check.StaticScenario{
		env(names.UERRC4G, types.MsgUserDataOn),
		env(names.UECM, types.MsgUserDialCall),
		env(names.UECM, types.MsgUserHangUp),
		env(names.UERRC3G, types.MsgUserDataOff),
		env(names.UERRC3G, types.MsgInterSystemCellReselect),
	}
	return Scoped{
		Finding:  S3,
		Fixed:    fixed,
		World:    w,
		Scenario: sc,
		Props:    []check.Property{props.MMOK()},
		Options:  check.Options{MaxDepth: 24, MaxStates: 1 << 18},
	}
}

// S4CSWorld builds the cross-layer HOL-blocking world of §6.1, CS side:
// an outgoing call dialed while MM runs a location-area update.
func S4CSWorld(fixed bool) Scoped {
	g := baseGlobals()
	g[names.GSys] = int(types.Sys3G)
	w := mustWorld(model.Config{
		Globals: g,
		Procs: []model.ProcConfig{
			{Name: names.UECM, Spec: cm.DeviceSpec(cm.DeviceOptions{}), OutputTo: []string{names.UEMM}},
			{Name: names.UEMM, Spec: mm.DeviceSpec(mm.DeviceOptions{FixParallelUpdate: fixed}), OutputTo: []string{names.UECM}},
			{Name: names.MSCMM, Spec: mm.MSCSpec(mm.MSCOptions{})},
			{Name: names.MSCCM, Spec: cm.MSCSpec(cm.MSCOptions{})},
		},
	})
	sc := check.StaticScenario{
		env(names.UEMM, types.MsgPowerOn),
		env(names.UEMM, types.MsgUserMove),
		env(names.UECM, types.MsgUserDialCall),
	}
	return Scoped{
		Finding:  S4,
		Fixed:    fixed,
		World:    w,
		Scenario: sc,
		Props:    []check.Property{props.CallServiceOK()},
		Options: check.Options{MaxDepth: 18, MaxStates: 1 << 18,
			// This scoped world deliberately omits the RRC layers, so
			// CM's radio-directed outputs (CSFB trigger, call-connect
			// notification) have no handler here; suppress the
			// unhandled-output rule for CM instead of skipping lint.
			LintSuppress: map[string][]string{names.UECM: {"MSG003"}},
		},
	}
}

// S4PSWorld builds the PS twin of §6.1: a data request issued while GMM
// runs a routing-area update.
func S4PSWorld(fixed bool) Scoped {
	w := mustWorld(model.Config{
		Globals: baseGlobals(),
		Procs: []model.ProcConfig{
			{Name: names.UEGMM, Spec: gmm.DeviceSpec(gmm.DeviceOptions{FixParallelUpdate: fixed})},
			{Name: names.SGSNGMM, Spec: gmm.SGSNSpec(gmm.SGSNOptions{})},
			{Name: names.UESM, Spec: sm.DeviceSpec(sm.DeviceOptions{FixParallelUpdate: fixed})},
			{Name: names.SGSNSM, Spec: sm.SGSNSpec(sm.SGSNOptions{})},
		},
	})
	sc := check.StaticScenario{
		env(names.UEGMM, types.MsgPowerOn),
		env(names.UEGMM, types.MsgUserMove),
		env(names.UESM, types.MsgUserDataOn),
	}
	return Scoped{
		Finding:  S4,
		Fixed:    fixed,
		World:    w,
		Scenario: sc,
		Props:    []check.Property{props.DataServiceOK()},
		Options:  check.Options{MaxDepth: 16, MaxStates: 1 << 18},
	}
}

// S6World builds the cross-system failure-propagation world of §6.3: a
// 4G-attached device is switched to 3G where its location update fails;
// on the return to 4G the MME either propagates the failure (detaching
// the device) or — with the fix — recovers it with the MSC.
func S6World(fixed bool) Scoped {
	w := mustWorld(model.Config{
		Globals: baseGlobals(),
		Procs: []model.ProcConfig{
			{Name: names.UEEMM, Spec: emm.DeviceSpec(emm.DeviceOptions{})},
			{Name: names.MMEEMM, Spec: emm.MMESpec(emm.MMEOptions{PropagateLUFailure: !fixed, FixLUFailureRecovery: fixed})},
			{Name: names.UEMM, Spec: mm.DeviceSpec(mm.DeviceOptions{})},
			{Name: names.MSCMM, Spec: mm.MSCSpec(mm.MSCOptions{})},
			{Name: names.UERRC4G, Spec: rrc4g.DeviceSpec(rrc4g.DeviceOptions{}), OutputTo: []string{names.UEMM}},
		},
	})
	sc := check.StaticScenario{
		env(names.UEEMM, types.MsgPowerOn),
		env(names.MSCMM, types.MsgLUFailureSignal),
		env(names.UERRC4G, types.MsgNetSwitchOrder),
		env(names.UEEMM, types.MsgInterSystemCellReselect),
	}
	return Scoped{
		Finding:  S6,
		Fixed:    fixed,
		World:    w,
		Scenario: sc,
		Props:    []check.Property{props.PacketServiceOK()},
		Options:  check.Options{MaxDepth: 20, MaxStates: 1 << 18},
	}
}

// ScopedModels returns the screening worlds for every design finding
// the checker can discover (S1–S4, S6), in their defective
// configuration.
//
// S5 has no scoped world — and consequently no checker golden trace
// and no entry in the minimized golden corpus (internal/fuzz/testdata/
// corpus). It is an *operational* finding (§6.2): the PS rate collapse
// is a throughput degradation measured on the emulator's radio model,
// not a reachable bad state of the protocol FSMs, so there is no
// property violation for the screening phase to counterexample or for
// the shrinker to minimize.
func ScopedModels() []Scoped {
	return []Scoped{
		S1World(false),
		S2World(false),
		S3World(false, names.SwitchReselect),
		S4CSWorld(false),
		S4PSWorld(false),
		S6World(false),
	}
}

// FixedModels returns the same worlds with the §8 fixes enabled.
func FixedModels() []Scoped {
	return []Scoped{
		S1World(true),
		S2World(true),
		S3World(true, names.SwitchReselect),
		S4CSWorld(true),
		S4PSWorld(true),
		S6World(true),
	}
}
