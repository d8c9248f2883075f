package netemu

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/names"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/trace"
	"cnetverifier/internal/types"
)

// NodeID identifies which side of the air interface a process runs on.
type NodeID uint8

// Node identifiers.
const (
	NodeDevice NodeID = iota + 1
	NodeNetwork
)

func (n NodeID) String() string {
	switch n {
	case NodeDevice:
		return "device"
	case NodeNetwork:
		return "network"
	default:
		return fmt.Sprintf("NodeID(%d)", uint8(n))
	}
}

// LinkParams model one direction of the air interface between the
// device and the network (through the BS).
type LinkParams struct {
	// Latency is the one-way signaling latency.
	Latency time.Duration
	// Jitter adds uniform jitter in [0, Jitter).
	Jitter time.Duration
	// Dropper injects random loss; nil means lossless.
	Dropper *radio.Dropper
	// DropFilter injects targeted loss: a frame is discarded when the
	// filter returns true (the §9.1 prototype's "drops the message
	// according to a given drop rate" generalized to specific signals;
	// the validation phase uses it to stage S2's lost messages).
	DropFilter func(types.Message) bool
}

func (l LinkParams) delay(s *Sim) time.Duration {
	d := l.Latency
	if l.Jitter > 0 {
		d += time.Duration(s.Rand().Int63n(int64(l.Jitter)))
	}
	return d
}

// procRT is a runtime process: a machine hosted on a node.
type procRT struct {
	name     string
	node     NodeID
	m        *fsm.Machine
	outputTo []string
}

// World hosts the device and network stacks under one simulator and
// one shared global-context store, mirroring model.World but with
// virtual time, latency and loss.
type World struct {
	Sim       *Sim
	Collector *trace.Collector
	// Uplink and Downlink are the device→network and network→device
	// link parameters.
	Uplink, Downlink LinkParams

	globals map[string]int
	procs   map[string]*procRT
	// procDelays adds per-(destination, message-kind) processing time
	// on top of link latency — the multi-second operator-side
	// procedure latencies (location/routing updates) that the
	// validation phase needs for realistic timing windows. Opt-in via
	// SetProcessingDelay / WireProcessingDelays.
	procDelays map[string]map[types.MsgKind]Dist

	// Delivered counts messages delivered; Dropped counts messages
	// lost on the air interface.
	Delivered, Dropped int
	// Stats carries the link-layer counters that campaigns assert on:
	// misrouted frames and the reliable-delivery bookkeeping.
	Stats Stats
	// reliab, when non-nil, is the ack-or-timeout retransmission layer
	// wrapped around the air interface (see reliab.go).
	reliab *reliabService
	// perProc counts deliveries per destination process — the
	// operator-side signaling-load observability the paper notes its
	// phone-based method lacks (§3.1: "It may not uncover all issues
	// at base stations and in the core network which operators are
	// interested in").
	perProc map[string]int
}

// Stats counts link-layer events of one emulation run. Unlike the
// paper's phone-side vantage point (§3.1), these counters also expose
// what the infrastructure saw: frames to nonexistent processes and the
// retransmission service's activity.
type Stats struct {
	// Misrouted counts frames addressed to a proc absent from the
	// world. Silent misrouting wedges validation campaigns, so it is
	// counted loudly in addition to the trace line.
	Misrouted int
	// Retransmits, Expiries and Aborts count the reliable-delivery
	// layer's timer activity (reliab.go).
	Retransmits int
	Expiries    int
	Aborts      int
	// Duplicates counts retransmitted frames suppressed at the receiver
	// because their original was already stepped into the machine.
	Duplicates int
	// Acks counts link-layer acknowledgments that reached the sender;
	// AcksLost counts those the reverse link dropped.
	Acks     int
	AcksLost int
}

// NewWorld returns an empty world with the given seed and default
// 30 ms one-way signaling latency.
func NewWorld(seed int64) *World {
	return &World{
		Sim:        NewSim(seed),
		Collector:  trace.NewCollector(),
		Uplink:     LinkParams{Latency: 30 * time.Millisecond},
		Downlink:   LinkParams{Latency: 30 * time.Millisecond},
		globals:    make(map[string]int),
		procs:      make(map[string]*procRT),
		perProc:    make(map[string]int),
		procDelays: make(map[string]map[types.MsgKind]Dist),
	}
}

// AddProc hosts a machine for spec under the proc name on a node.
func (w *World) AddProc(name string, node NodeID, spec *fsm.Spec, outputTo ...string) error {
	if _, dup := w.procs[name]; dup {
		return fmt.Errorf("netemu: duplicate proc %q", name)
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("netemu: proc %q: %w", name, err)
	}
	w.procs[name] = &procRT{name: name, node: node, m: fsm.New(spec), outputTo: outputTo}
	return nil
}

// MustAddProc is AddProc that panics on error (wiring code).
func (w *World) MustAddProc(name string, node NodeID, spec *fsm.Spec, outputTo ...string) {
	if err := w.AddProc(name, node, spec, outputTo...); err != nil {
		panic(err)
	}
}

// Machine returns the named process's machine, or nil.
func (w *World) Machine(name string) *fsm.Machine {
	if p, ok := w.procs[name]; ok {
		return p.m
	}
	return nil
}

// Global reads a shared context variable.
func (w *World) Global(name string) int { return w.globals[name] }

// SetGlobal writes a shared context variable.
func (w *World) SetGlobal(name string, v int) { w.globals[name] = v }

// rtCtx implements fsm.Ctx for a process executing in the world.
type rtCtx struct {
	w *World
	p *procRT
}

func (c *rtCtx) Get(name string) int    { return c.w.globals[name] }
func (c *rtCtx) Set(name string, v int) { c.w.globals[name] = v }

// GetI/SetI are only resolved by the machine wrapper; the emulator
// context never receives indexed calls.
func (c *rtCtx) GetI(int32) int32  { return 0 }
func (c *rtCtx) SetI(int32, int32) {}
func (c *rtCtx) Send(to string, msg types.Message) {
	msg.From = c.p.name
	c.w.route(c.p, to, msg)
}
func (c *rtCtx) Output(msg types.Message) {
	msg.From = c.p.name
	for _, dst := range c.p.outputTo {
		dst := dst
		m := msg
		m.To = dst
		// Cross-layer outputs are local: delivered in the same instant.
		c.w.Sim.At(c.w.Sim.Now(), func() { c.w.deliver(dst, m) })
	}
}
func (c *rtCtx) Trace(format string, args ...any) {
	sys := types.System(c.w.globals[names.GSys])
	c.w.Collector.Addf(c.w.Sim.Now(), trace.TypeInfo, sys, c.p.m.Spec().Name, format, args...)
}

// route schedules delivery of msg to the named proc, applying air-link
// latency and loss when the destination is on the other node.
func (w *World) route(src *procRT, to string, msg types.Message) {
	dst, ok := w.procs[to]
	if !ok {
		w.Stats.Misrouted++
		w.record(trace.TypeError, msg.System, src.m.Spec().Name,
			"send to unknown proc "+strconv.Quote(to)+" dropped")
		return
	}
	msg.To = to
	if src.node == dst.node {
		w.Sim.At(w.Sim.Now(), func() { w.deliver(to, msg) })
		return
	}
	if w.reliab != nil {
		w.reliab.send(src, to, msg)
		return
	}
	link := w.Uplink
	if src.node == NodeNetwork {
		link = w.Downlink
	}
	if lost(link, msg) {
		w.Dropped++
		w.recordLoss(src, msg)
		return
	}
	w.Sim.After(link.delay(w.Sim)+w.processingDelay(to, msg.Kind), func() { w.deliver(to, msg) })
}

// processingDelay samples the configured server-side processing time
// for a (destination, kind) pair, or zero.
func (w *World) processingDelay(to string, kind types.MsgKind) time.Duration {
	if byKind, ok := w.procDelays[to]; ok {
		if d, ok := byKind[kind]; ok {
			return d.Sample(w.Sim.Rand())
		}
	}
	return 0
}

// SetProcessingDelay configures the server-side processing time applied
// to messages of the kind arriving at the proc.
func (w *World) SetProcessingDelay(proc string, kind types.MsgKind, d Dist) {
	if w.procDelays[proc] == nil {
		w.procDelays[proc] = make(map[types.MsgKind]Dist)
	}
	w.procDelays[proc][kind] = d
}

// deliver steps the destination machine with the message.
func (w *World) deliver(to string, msg types.Message) {
	p, ok := w.procs[to]
	if !ok {
		return
	}
	w.Delivered++
	w.perProc[to]++
	tr, fired := p.m.Step(&rtCtx{w: w, p: p}, fsm.EvMsg(msg))
	sys := types.System(w.globals[names.GSys])
	if fired {
		w.record(trace.TypeSignal, sys, p.m.Spec().Name,
			msg.String()+" -> "+string(p.m.State())+" ["+tr.Name+"]")
	} else {
		w.record(trace.TypeInfo, sys, p.m.Spec().Name,
			msg.String()+" discarded in "+string(p.m.State()))
	}
}

// record appends a trace record at the current virtual time. The
// emulator's own records build their descriptions by concatenation;
// only spec-owned format strings (Ctx.Trace) go through Collector.Addf.
func (w *World) record(typ trace.Type, sys types.System, module, desc string) {
	w.Collector.Add(trace.Record{At: w.Sim.Now(), Type: typ, System: sys, Module: module, Desc: desc})
}

// recordLoss traces a frame from src that the air interface dropped.
func (w *World) recordLoss(src *procRT, msg types.Message) {
	w.record(trace.TypeError, msg.System, src.m.Spec().Name,
		"signal "+msg.Kind.String()+" lost over the air")
}

// Inject delivers an environment event to a proc at the current time.
func (w *World) Inject(to string, msg types.Message) {
	w.Sim.At(w.Sim.Now(), func() { w.deliver(to, msg) })
}

// InjectAt delivers an environment event at an absolute virtual time.
func (w *World) InjectAt(t time.Duration, to string, msg types.Message) {
	w.Sim.At(t, func() { w.deliver(to, msg) })
}

// ProcLoad returns the per-process delivery counts (a copy).
func (w *World) ProcLoad() map[string]int {
	out := make(map[string]int, len(w.perProc))
	for k, v := range w.perProc {
		out[k] = v
	}
	return out
}

// ElementLoad aggregates signaling load per hosting element (the part
// of the process name before the first dot: ue, mme, msc, sgsn, bs).
func (w *World) ElementLoad() map[string]int {
	out := make(map[string]int)
	for proc, n := range w.perProc {
		element := proc
		if i := strings.IndexByte(proc, '.'); i > 0 {
			element = proc[:i]
		}
		out[element] += n
	}
	return out
}

// Run drains all pending events.
func (w *World) Run() { w.Sim.Run() }

// RunUntil drains events up to t.
func (w *World) RunUntil(t time.Duration) { w.Sim.RunUntil(t) }
