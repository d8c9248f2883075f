package netemu

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cnetverifier/internal/names"
	"cnetverifier/internal/protocols/emm"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/trace"
	"cnetverifier/internal/types"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.After(2*time.Second, func() { got = append(got, 2) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(1*time.Second, func() { got = append(got, 11) }) // same time: FIFO
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(1)
	ran := 0
	s.After(time.Second, func() { ran++ })
	s.After(5*time.Second, func() { ran++ })
	s.RunUntil(2 * time.Second)
	if ran != 1 || s.Now() != 2*time.Second || s.Pending() != 1 {
		t.Fatalf("ran=%d now=%v pending=%d", ran, s.Now(), s.Pending())
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim(1)
	var order []string
	s.After(time.Second, func() {
		order = append(order, "a")
		s.After(time.Second, func() { order = append(order, "c") })
		s.At(s.Now(), func() { order = append(order, "b") })
	})
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestSimPastSchedulingClamped(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.After(time.Second, func() {
		s.At(0, func() { fired = true }) // in the past: clamped to now
	})
	s.Run()
	if !fired {
		t.Fatal("past event never fired")
	}
	if s.Now() != time.Second {
		t.Fatalf("now = %v", s.Now())
	}
}

// Cancelling a timer removes its event from the scheduler outright: it
// holds no queue slot, never runs, and Cancel/Pending report the
// lifecycle exactly once each way.
func TestSimTimerCancel(t *testing.T) {
	s := NewSim(1)
	var fired []string
	a := s.AfterTimer(10*time.Millisecond, func() { fired = append(fired, "a") })
	b := s.AfterTimer(20*time.Millisecond, func() { fired = append(fired, "b") })
	if s.Pending() != 2 || !a.Pending() || !b.Pending() {
		t.Fatalf("pending = %d (a=%v b=%v), want 2 armed timers", s.Pending(), a.Pending(), b.Pending())
	}
	if !a.Cancel() {
		t.Fatal("first Cancel reported false")
	}
	if a.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	if s.Pending() != 1 || a.Pending() {
		t.Fatalf("after cancel: pending = %d, a.Pending = %v", s.Pending(), a.Pending())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired = %v, want only b", fired)
	}
	if b.Pending() || b.Cancel() {
		t.Fatal("a fired timer is still pending/cancellable")
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (Fixed{D: time.Second}).Sample(rng); d != time.Second {
		t.Fatalf("fixed = %v", d)
	}
	u := Uniform{Min: time.Second, Max: 2 * time.Second}
	for i := 0; i < 1000; i++ {
		d := u.Sample(rng)
		if d < u.Min || d >= u.Max {
			t.Fatalf("uniform sample %v out of range", d)
		}
	}
	if d := (Uniform{Min: time.Second, Max: time.Second}).Sample(rng); d != time.Second {
		t.Fatalf("degenerate uniform = %v", d)
	}
	tri := Triangular{Min: time.Second, Mode: 2 * time.Second, Max: 5 * time.Second}
	sum := time.Duration(0)
	for i := 0; i < 5000; i++ {
		d := tri.Sample(rng)
		if d < tri.Min || d > tri.Max {
			t.Fatalf("triangular sample %v out of range", d)
		}
		sum += d
	}
	mean := sum / 5000
	// Triangular mean = (min+mode+max)/3 ≈ 2.67 s.
	if mean < 2400*time.Millisecond || mean > 2900*time.Millisecond {
		t.Fatalf("triangular mean = %v", mean)
	}
	mix := Mixture{
		Weights: []float64{0.5, 0.5},
		Parts:   []Dist{Fixed{D: time.Second}, Fixed{D: 3 * time.Second}},
	}
	lo, hi := 0, 0
	for i := 0; i < 2000; i++ {
		switch mix.Sample(rng) {
		case time.Second:
			lo++
		case 3 * time.Second:
			hi++
		default:
			t.Fatal("unexpected mixture sample")
		}
	}
	if lo < 800 || hi < 800 {
		t.Fatalf("mixture unbalanced: %d/%d", lo, hi)
	}
	if (Mixture{}).Sample(rng) != 0 {
		t.Fatal("empty mixture should sample 0")
	}
}

func TestProfilesCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range Operators() {
		if p.Name == "" || p.LAU == nil || p.RAU == nil || p.Reattach == nil || p.StuckReturn == nil {
			t.Fatalf("profile %q incomplete", p.Name)
		}
		// Figure 8a: OP-I LAUs all exceed 2 s; OP-II average ≈1.9 s.
		var sum time.Duration
		const n = 4000
		for i := 0; i < n; i++ {
			d := p.LAU.Sample(rng)
			if p.Name == "OP-I" && d < 2*time.Second {
				t.Fatalf("OP-I LAU %v < 2s", d)
			}
			sum += d
		}
		mean := sum / n
		switch p.Name {
		case "OP-I":
			if mean < 2700*time.Millisecond || mean > 3300*time.Millisecond {
				t.Fatalf("OP-I LAU mean = %v, want ≈3s", mean)
			}
		case "OP-II":
			if mean < 1600*time.Millisecond || mean > 2200*time.Millisecond {
				t.Fatalf("OP-II LAU mean = %v, want ≈1.9s", mean)
			}
		}
	}
	// OP-I uses redirect, OP-II reselection (§5.3.2).
	if OPI().SwitchOption != names.SwitchRedirect || OPII().SwitchOption != names.SwitchReselect {
		t.Fatal("switch options wrong")
	}
	// Figure 9 calibration: OP-II's UL overhead must dwarf OP-I's.
	if OPII().VoiceOverheadUL <= OPI().VoiceOverheadUL {
		t.Fatal("UL overhead calibration inverted")
	}
}

// End-to-end: a 4G attach over the emulated air interface with latency.
func TestWorldAttachFlow(t *testing.T) {
	w := NewWorld(1)
	w.MustAddProc(names.UEEMM, NodeDevice, emm.DeviceSpec(emm.DeviceOptions{}))
	w.MustAddProc(names.MMEEMM, NodeNetwork, emm.MMESpec(emm.MMEOptions{}))
	w.Inject(names.UEEMM, types.Message{Kind: types.MsgPowerOn})
	w.Run()

	if got := w.Machine(names.UEEMM).State(); got != emm.UERegistered {
		t.Fatalf("UE state = %s", got)
	}
	if got := w.Machine(names.MMEEMM).State(); got != emm.MMERegistered {
		t.Fatalf("MME state = %s", got)
	}
	if w.Global(names.GEPS) != 1 {
		t.Fatal("EPS bearer not active")
	}
	// Attach request + accept + complete = 3 one-way trips ≥ 90 ms.
	if w.Sim.Now() < 90*time.Millisecond {
		t.Fatalf("attach completed too fast: %v", w.Sim.Now())
	}
	if w.Delivered < 4 {
		t.Fatalf("delivered = %d", w.Delivered)
	}
	// Trace records exist for the signaling.
	recs := w.Collector.Records()
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	if _, ok := (trace.Filter{Type: trace.TypeSignal, Contains: "AttachAccept"}).FirstMatch(recs); !ok {
		t.Fatal("attach accept not traced")
	}
}

// Loss injection: with a fully lossy uplink the attach never completes
// and the loss is traced.
func TestWorldLossyUplink(t *testing.T) {
	w := NewWorld(1)
	w.Uplink.Dropper = radio.NewDropper(1.0, 42)
	w.MustAddProc(names.UEEMM, NodeDevice, emm.DeviceSpec(emm.DeviceOptions{}))
	w.MustAddProc(names.MMEEMM, NodeNetwork, emm.MMESpec(emm.MMEOptions{}))
	w.Inject(names.UEEMM, types.Message{Kind: types.MsgPowerOn})
	w.Run()
	if w.Machine(names.MMEEMM).State() != emm.MMEDeregistered {
		t.Fatal("MME should never hear the attach")
	}
	if w.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
	if _, ok := (trace.Filter{Type: trace.TypeError, Contains: "lost over the air"}).FirstMatch(w.Collector.Records()); !ok {
		t.Fatal("loss not traced")
	}
}

func TestWorldDuplicateProcRejected(t *testing.T) {
	w := NewWorld(1)
	w.MustAddProc(names.UEEMM, NodeDevice, emm.DeviceSpec(emm.DeviceOptions{}))
	if err := w.AddProc(names.UEEMM, NodeDevice, emm.DeviceSpec(emm.DeviceOptions{})); err == nil {
		t.Fatal("duplicate proc accepted")
	}
}

func TestWorldUnknownDestinationTraced(t *testing.T) {
	w := NewWorld(1)
	// Device EMM's peer (mme.emm) is absent.
	w.MustAddProc(names.UEEMM, NodeDevice, emm.DeviceSpec(emm.DeviceOptions{}))
	w.Inject(names.UEEMM, types.Message{Kind: types.MsgPowerOn})
	w.Run()
	if _, ok := (trace.Filter{Type: trace.TypeError, Contains: "unknown proc"}).FirstMatch(w.Collector.Records()); !ok {
		t.Fatal("unknown destination not traced")
	}
}

// The full standard stack performs the complete S1 sequence under
// virtual time: attach in 4G, fall to 3G, deactivate the PDP context,
// return to 4G, get detached — and with all fixes on, stay registered.
func TestStandardStackS1(t *testing.T) {
	run := func(fixes FixSet) *World {
		w := NewWorld(1)
		StandardStack(w, OPII(), fixes)
		w.InjectAt(0, names.UEEMM, types.Message{Kind: types.MsgPowerOn})
		w.InjectAt(time.Second, names.UEGMM, types.Message{Kind: types.MsgInterSystemSwitchCommand})
		w.InjectAt(2*time.Second, names.UESM, types.Message{Kind: types.MsgDeactivatePDPRequest, Cause: types.CauseInsufficientResources})
		w.InjectAt(3*time.Second, names.UEEMM, types.Message{Kind: types.MsgInterSystemCellReselect})
		w.Run()
		return w
	}

	broken := run(FixSet{})
	if broken.Global(names.GDetachedByNet) != 1 {
		t.Fatal("defective stack: device not detached (S1 not reproduced)")
	}

	fixed := run(AllFixes())
	if fixed.Global(names.GDetachedByNet) != 0 {
		t.Fatal("fixed stack: device detached despite fixes")
	}
	if fixed.Global(names.GEPS) != 1 {
		t.Fatal("fixed stack: EPS bearer not reactivated")
	}
}

// The standard stack reproduces S6: an armed 3G LU failure detaches the
// returning 4G device unless the cross-system fix recovers it.
func TestStandardStackS6(t *testing.T) {
	run := func(fixes FixSet) *World {
		w := NewWorld(1)
		StandardStack(w, OPI(), fixes)
		w.InjectAt(0, names.UEEMM, types.Message{Kind: types.MsgPowerOn})
		w.InjectAt(time.Second, names.MSCMM, types.Message{Kind: types.MsgLUFailureSignal})
		// Mobility 4G→3G: RRC4G hands over and tells MM to update.
		w.InjectAt(2*time.Second, names.UERRC4G, types.Message{Kind: types.MsgNetSwitchOrder})
		w.InjectAt(10*time.Second, names.UEEMM, types.Message{Kind: types.MsgInterSystemCellReselect})
		w.Run()
		return w
	}

	broken := run(FixSet{})
	if broken.Global(names.GDetachedByNet) != 1 {
		t.Fatal("defective stack: S6 not reproduced")
	}
	fixed := run(AllFixes())
	if fixed.Global(names.GDetachedByNet) != 0 {
		t.Fatal("fixed stack: S6 still detaches")
	}
	if fixed.Global(names.GLUFail3G) != 0 {
		t.Fatal("fixed stack: LU failure not recovered")
	}
}

// Every world of one stack configuration instantiates fresh machines
// over one shared set of immutable specs; stepping one world never
// reaches another's machines or globals, and a different FixSet or the
// VoLTE stack gets specs of its own.
func TestStackSharesSpecs(t *testing.T) {
	a, b := NewWorld(1), NewWorld(2)
	StandardStack(a, OPII(), FixSet{})
	StandardStack(b, OPII(), FixSet{})
	rows := stackTable(FixSet{}, false)
	if len(rows) != 14 {
		t.Fatalf("stack table has %d rows, want 14", len(rows))
	}
	for _, r := range rows {
		ma, mb := a.Machine(r.name), b.Machine(r.name)
		if ma == nil || mb == nil || ma == mb {
			t.Fatalf("%s: machines %p and %p, want two distinct ones", r.name, ma, mb)
		}
		if ma.Spec() != r.spec || mb.Spec() != r.spec {
			t.Fatalf("%s: specs %p and %p, want the shared %p", r.name, ma.Spec(), mb.Spec(), r.spec)
		}
	}

	snapshot := func(w *World) (map[string]string, map[string]int) {
		ms := make(map[string]string, len(rows))
		for _, r := range rows {
			ms[r.name] = string(w.Machine(r.name).Encode(nil))
		}
		gs := make(map[string]int, len(w.globals))
		for k, v := range w.globals {
			gs[k] = v
		}
		return ms, gs
	}
	bMachines, bGlobals := snapshot(b)
	a.InjectAt(0, names.UEEMM, types.Message{Kind: types.MsgPowerOn})
	a.Run()
	if a.Global(names.GReg4G) != 1 {
		t.Fatal("stepped world did not attach")
	}
	aMachines, _ := snapshot(a)
	if aMachines[names.UEEMM] == bMachines[names.UEEMM] {
		t.Fatal("stepped world's EMM machine did not change")
	}
	gotMachines, gotGlobals := snapshot(b)
	if !reflect.DeepEqual(gotMachines, bMachines) || !reflect.DeepEqual(gotGlobals, bGlobals) {
		t.Fatal("stepping one world changed another world of the same configuration")
	}

	for _, other := range []struct {
		fixes FixSet
		volte bool
	}{
		{FixSet{CrossSystem: true}, false},
		{FixSet{ReliableSignaling: true}, false},
		{AllFixes(), false},
		{FixSet{}, true},
	} {
		w := NewWorld(1)
		if other.volte {
			VoLTEStack(w, OPII(), other.fixes)
		} else {
			StandardStack(w, OPII(), other.fixes)
		}
		for _, r := range rows {
			if w.Machine(r.name).Spec() == r.spec {
				t.Fatalf("%+v volte=%v: %s shares the defective stack's spec", other.fixes, other.volte, r.name)
			}
		}
	}
}

// Worlds of one configuration built and run from several goroutines at
// once — the first of them racing to build the shared spec table — each
// reach the same end state a lone world does.
func TestStackConcurrentWorlds(t *testing.T) {
	fixes := FixSet{ParallelUpdate: true, DomainDecoupling: true}
	run := func() map[string]int {
		w := NewWorld(1)
		StandardStack(w, OPII(), fixes)
		w.InjectAt(0, names.UEEMM, types.Message{Kind: types.MsgPowerOn})
		w.InjectAt(time.Second, names.UEGMM, types.Message{Kind: types.MsgInterSystemSwitchCommand})
		w.InjectAt(2*time.Second, names.UESM, types.Message{Kind: types.MsgDeactivatePDPRequest, Cause: types.CauseInsufficientResources})
		w.InjectAt(3*time.Second, names.UEEMM, types.Message{Kind: types.MsgInterSystemCellReselect})
		w.Run()
		return w.globals
	}
	const n = 4
	got := make([]map[string]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	want := run()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("world %d ended with globals %v, want %v", i, g, want)
		}
	}
}

// SharedChannelFor wires profile overheads into the radio channel.
func TestSharedChannelFor(t *testing.T) {
	ch := SharedChannelFor(OPII(), FixSet{}, true)
	if !ch.Coupled || ch.VoiceOverheadFactor != OPII().VoiceOverheadUL {
		t.Fatalf("channel = %+v", ch)
	}
	dec := SharedChannelFor(OPII(), AllFixes(), false)
	if dec.Coupled {
		t.Fatal("decoupling fix not applied")
	}
}

// NodeID strings.
func TestNodeIDString(t *testing.T) {
	for _, n := range []NodeID{NodeDevice, NodeNetwork, NodeID(9)} {
		if n.String() == "" {
			t.Fatal("empty NodeID string")
		}
	}
}

// CSFB on OP-II (S3): after a call with data on, the hang-up leaves the
// device in 3G with its return to 4G still owed.
func TestCSFBStackStuckAfterCall(t *testing.T) {
	w := NewWorld(1)
	StandardStack(w, OPII(), FixSet{})
	w.SetGlobal(names.GSys, int(types.Sys4G))
	w.SetGlobal(names.GReg4G, 1)
	w.InjectAt(0, names.UERRC4G, types.Message{Kind: types.MsgUserDataOn})
	w.InjectAt(time.Second, names.UECM, types.Message{Kind: types.MsgUserDialCall})
	w.RunUntil(10 * time.Second)
	w.Inject(names.UECM, types.Message{Kind: types.MsgUserHangUp})
	w.Run()
	if w.Global(names.GWantReturn4G) != 1 {
		t.Fatal("CSFB hang-up on OP-II left no pending return to 4G")
	}
	if got := types.System(w.Global(names.GSys)); got != types.Sys3G {
		t.Fatalf("after CSFB call: %s, want stuck in 3G", got)
	}
}

// VoLTE (§2's deployment alternative): the same call scenario that
// strands a CSFB device on OP-II never leaves 4G.
func TestVoLTEStackAvoidsS3(t *testing.T) {
	w := NewWorld(1)
	VoLTEStack(w, OPII(), FixSet{})
	w.SetGlobal(names.GSys, int(types.Sys4G))
	w.SetGlobal(names.GReg4G, 1)
	w.InjectAt(0, names.UERRC4G, types.Message{Kind: types.MsgUserDataOn})
	w.InjectAt(time.Second, names.UECM, types.Message{Kind: types.MsgUserDialCall})
	w.RunUntil(10 * time.Second)
	if w.Global(names.GCallActive) != 1 {
		t.Fatal("VoLTE call not established")
	}
	if got := types.System(w.Global(names.GSys)); got != types.Sys4G {
		t.Fatalf("VoLTE call left 4G: %s", got)
	}
	// No S5 modulation downgrade either: the 3G shared channel is not
	// involved.
	if w.Global(names.GModulation) != 64 {
		t.Fatalf("modulation = %d during VoLTE call", w.Global(names.GModulation))
	}
	w.Inject(names.UECM, types.Message{Kind: types.MsgUserHangUp})
	w.Run()
	if w.Global(names.GWantReturn4G) != 0 {
		t.Fatal("VoLTE hang-up raised a return obligation")
	}
	if got := types.System(w.Global(names.GSys)); got != types.Sys4G {
		t.Fatalf("after VoLTE call: %s", got)
	}
}

// Signaling-load accounting: the attach flow loads the MME; per-element
// aggregation groups the core processes.
func TestSignalingLoadStats(t *testing.T) {
	w := NewWorld(1)
	StandardStack(w, OPI(), FixSet{})
	w.Inject(names.UEEMM, types.Message{Kind: types.MsgPowerOn})
	w.Run()
	load := w.ProcLoad()
	if load[names.MMEEMM] < 2 { // attach request + complete
		t.Fatalf("MME EMM load = %d", load[names.MMEEMM])
	}
	if load[names.UEEMM] < 2 { // power-on event + attach accept
		t.Fatalf("UE EMM load = %d", load[names.UEEMM])
	}
	el := w.ElementLoad()
	if el["mme"] != load[names.MMEEMM]+load[names.MMEESM] {
		t.Fatalf("element aggregation wrong: %v vs %v", el, load)
	}
	total := 0
	for _, n := range el {
		total += n
	}
	if total != w.Delivered {
		t.Fatalf("element totals %d != delivered %d", total, w.Delivered)
	}
	// The returned maps are copies.
	load[names.MMEEMM] = 999
	if w.ProcLoad()[names.MMEEMM] == 999 {
		t.Fatal("ProcLoad leaked internal map")
	}
}

// WireProcessingDelays makes location updates take the operator's
// measured multi-second time on the emulated MSC.
func TestProcessingDelays(t *testing.T) {
	run := func(wire bool) time.Duration {
		w := NewWorld(1)
		StandardStack(w, OPI(), FixSet{})
		if wire {
			WireProcessingDelays(w, OPI())
		}
		w.SetGlobal(names.GSys, int(types.Sys3G))
		w.Inject(names.UEMM, types.Message{Kind: types.MsgPowerOn})
		w.Run()
		return w.Sim.Now()
	}
	fast := run(false)
	slow := run(true)
	if fast > time.Second {
		t.Fatalf("unwired LAU took %v", fast)
	}
	// OP-I LAUs take 2–4 s (Figure 8a).
	if slow < 2*time.Second {
		t.Fatalf("wired LAU took %v, want ≥2s", slow)
	}
}

// The signaling cost tables stay internally consistent: every element
// named, non-negative costs, and the composite procedures dominate
// their parts.
func TestSignalingCosts(t *testing.T) {
	if got := len(Elements()); got != int(NumElements) {
		t.Fatalf("Elements() = %d entries, want %d", got, NumElements)
	}
	for _, e := range Elements() {
		if e.String() == "?" {
			t.Fatalf("element %d unnamed", e)
		}
	}
	if Element(99).String() != "?" {
		t.Fatal("out-of-range element must render as ?")
	}
	c := DefaultSignalingCosts()
	for name, pc := range map[string]ProcedureCost{
		"attach": c.Attach, "detach": c.Detach, "service": c.ServiceRequest,
		"tau": c.TAU, "rau": c.RAU, "switch": c.InterSystemSwitch,
		"csfb": c.CSFBCall, "cs": c.CSCall,
	} {
		if pc.Total() <= 0 {
			t.Errorf("%s: no signaling cost", name)
		}
		for e, v := range pc {
			if v < 0 {
				t.Errorf("%s: negative cost at %v", name, Element(e))
			}
		}
	}
	// A CSFB call must cost strictly more than a plain CS call (it adds
	// the fallback and the LAU), and the switch must touch the SGSN.
	if c.CSFBCall.Total() <= c.CSCall.Total() {
		t.Error("CSFB call not costlier than a CS call")
	}
	if c.InterSystemSwitch[ElemSGSN] == 0 {
		t.Error("inter-system switch bypasses the SGSN")
	}
	for _, cap := range DefaultElementCapacity() {
		if cap <= 0 {
			t.Fatal("non-positive element capacity")
		}
	}
}
