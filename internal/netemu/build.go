package netemu

import (
	"sync"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/names"
	"cnetverifier/internal/protocols/cm"
	"cnetverifier/internal/protocols/emm"
	"cnetverifier/internal/protocols/esm"
	"cnetverifier/internal/protocols/gmm"
	"cnetverifier/internal/protocols/mm"
	"cnetverifier/internal/protocols/rrc3g"
	"cnetverifier/internal/protocols/rrc4g"
	"cnetverifier/internal/protocols/sm"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/types"
)

// FixSet selects which §8 solution modules are enabled in an emulated
// stack (Figure 11: layer extension, domain decoupling, cross-system
// coordination).
type FixSet struct {
	// ReliableSignaling is the slim reliable-transfer layer between
	// EMM and RRC (fixes S2). In the emulator it is realized by the
	// internal/fixes/reliable shim wrapped around the air link.
	ReliableSignaling bool
	// ParallelUpdate decouples location updates from service requests
	// in MM/GMM (fixes S4).
	ParallelUpdate bool
	// DomainDecoupling separates CS and PS on RRC: CSFB-tagged calls
	// force a switch-capable state (fixes S3) and per-domain channels
	// keep PS modulation (fixes S5).
	DomainDecoupling bool
	// CrossSystem reactivates the EPS bearer instead of detaching
	// (fixes S1) and recovers 3G LU failures inside the core (fixes
	// S6).
	CrossSystem bool
}

// AllFixes enables every §8 module.
func AllFixes() FixSet {
	return FixSet{ReliableSignaling: true, ParallelUpdate: true, DomainDecoupling: true, CrossSystem: true}
}

// StandardStack assembles the full dual-system stack of Figure 1 into
// a world: eight device-side machines and their network peers (MME,
// MSC, SGSN), wired with the cross-layer outputs used by the findings.
// The carrier's switching option is installed from the profile, and
// the PropagateLUFailure slip (S6) is enabled exactly when the
// cross-system fix is off, matching the observed behavior of both
// carriers (§6.3).
func StandardStack(w *World, p OperatorProfile, fixes FixSet) {
	buildStack(w, p, fixes, false)
}

// VoLTEStack assembles the same stack with Voice-over-LTE (§2): calls
// stay in the 4G PS domain, so CSFB — and with it the S3 and S6
// exposure — never happens. The deployment alternative the paper notes
// carriers avoided for cost and complexity.
func VoLTEStack(w *World, p OperatorProfile, fixes FixSet) {
	buildStack(w, p, fixes, true)
}

// stackRow is one process of the standard stack: its proc name, the
// node hosting it, its spec and its cross-layer output targets.
type stackRow struct {
	name     string
	node     NodeID
	spec     *fsm.Spec
	outputTo []string
}

// stackTables holds one row table per (FixSet, VoLTE) configuration —
// at most 32 — built on first use. Specs are immutable, so every world
// of a configuration instantiates fresh machines over the same specs
// (and their memoized validation and layouts); only machines, globals,
// simulator and collector are per world.
var stackTables [32]struct {
	once sync.Once
	rows []stackRow
}

func buildStack(w *World, p OperatorProfile, fixes FixSet, volte bool) {
	for _, r := range stackTable(fixes, volte) {
		w.MustAddProc(r.name, r.node, r.spec, r.outputTo...)
	}
	w.SetGlobal(names.GSwitchOpt, p.SwitchOption)
	w.SetGlobal(names.GModulation, rrc3g.Mod64QAM)
	w.SetGlobal(names.GSys, int(types.SysNone))
}

func stackTable(fixes FixSet, volte bool) []stackRow {
	i := 0
	for bit, on := range []bool{fixes.ReliableSignaling, fixes.ParallelUpdate, fixes.DomainDecoupling, fixes.CrossSystem, volte} {
		if on {
			i |= 1 << bit
		}
	}
	t := &stackTables[i]
	t.once.Do(func() { t.rows = newStackTable(fixes, volte) })
	return t.rows
}

func newStackTable(fixes FixSet, volte bool) []stackRow {
	return []stackRow{
		// Device side.
		{names.UEEMM, NodeDevice,
			emm.DeviceSpec(emm.DeviceOptions{FixReactivateBearer: fixes.CrossSystem}), []string{names.UEESM}},
		{names.UEESM, NodeDevice, esm.DeviceSpec(esm.DeviceOptions{}), nil},
		{names.UEGMM, NodeDevice,
			gmm.DeviceSpec(gmm.DeviceOptions{FixParallelUpdate: fixes.ParallelUpdate}), nil},
		{names.UESM, NodeDevice,
			sm.DeviceSpec(sm.DeviceOptions{FixParallelUpdate: fixes.ParallelUpdate, FixKeepContext: fixes.CrossSystem}), nil},
		{names.UEMM, NodeDevice,
			mm.DeviceSpec(mm.DeviceOptions{FixParallelUpdate: fixes.ParallelUpdate}), []string{names.UECM}},
		{names.UECM, NodeDevice,
			cm.DeviceSpec(cm.DeviceOptions{VoLTE: volte}), []string{names.UEMM, names.UERRC3G, names.UERRC4G}},
		{names.UERRC3G, NodeDevice,
			rrc3g.DeviceSpec(rrc3g.DeviceOptions{FixCSFBTag: fixes.DomainDecoupling, FixDecoupleChannels: fixes.DomainDecoupling}), []string{names.UECM}},
		// 4G RRC's switch command fans out to 3G RRC (radio setup) and the
		// 3G mobility layers (location/routing updates, Figure 3 step 2).
		{names.UERRC4G, NodeDevice,
			rrc4g.DeviceSpec(rrc4g.DeviceOptions{}), []string{names.UERRC3G, names.UEMM, names.UEGMM}},

		// Network side.
		{names.MMEEMM, NodeNetwork,
			emm.MMESpec(emm.MMEOptions{
				FixReactivateBearer:  fixes.CrossSystem,
				FixLUFailureRecovery: fixes.CrossSystem,
				PropagateLUFailure:   !fixes.CrossSystem,
			}), []string{names.MMEESM}},
		{names.MMEESM, NodeNetwork, esm.MMESpec(esm.MMEOptions{}), nil},
		{names.SGSNGMM, NodeNetwork, gmm.SGSNSpec(gmm.SGSNOptions{}), nil},
		{names.SGSNSM, NodeNetwork,
			sm.SGSNSpec(sm.SGSNOptions{FixKeepContext: fixes.CrossSystem}), nil},
		{names.MSCMM, NodeNetwork, mm.MSCSpec(mm.MSCOptions{}), nil},
		{names.MSCCM, NodeNetwork, cm.MSCSpec(cm.MSCOptions{}), nil},
	}
}

// WireProcessingDelays installs the operator's measured procedure
// latencies (Figure 8) as server-side processing delays: the MSC takes
// the profile's LAU time to answer a location update and the SGSN the
// RAU time. The validation phase (internal/validate) uses this to get
// the realistic timing windows in which S4-class overlaps occur.
func WireProcessingDelays(w *World, p OperatorProfile) {
	w.SetProcessingDelay(names.MSCMM, types.MsgLocationUpdateRequest, p.LAU)
	w.SetProcessingDelay(names.SGSNGMM, types.MsgRoutingAreaUpdateRequest, p.RAU)
}

// SharedChannelFor builds the S5 radio channel for a profile,
// decoupled when the domain-decoupling fix is on.
func SharedChannelFor(p OperatorProfile, fixes FixSet, uplink bool) *radio.SharedChannel {
	ch := radio.NewSharedChannel()
	ch.Coupled = !fixes.DomainDecoupling
	if uplink {
		ch.VoiceOverheadFactor = p.VoiceOverheadUL
	} else {
		ch.VoiceOverheadFactor = p.VoiceOverheadDL
	}
	return ch
}
