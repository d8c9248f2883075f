package netemu

import (
	"sort"
	"strconv"
	"time"

	"cnetverifier/internal/names"
	"cnetverifier/internal/trace"
	"cnetverifier/internal/types"
)

// This file implements the world's reliable-delivery layer: a per-link
// ack-or-timeout retransmission service modeled on the NAS timer
// discipline (T3410 for attach, T3310 for the routing/tracking updates
// — TS 24.301 §10.2) that the paper's validation phase runs against on
// real carriers (§3.3). Without it every frame the Dropper/DropFilter
// hooks discard is a silent stall; with it the sender retransmits with
// exponential backoff and, when the retry budget is exhausted, its
// machine receives a synthesized MsgLinkFailure indication instead of
// hanging forever. Every expiry, retransmission and abort is written to
// the trace collector as a typed record (EXPIRY/RETX/ABORT), so a
// validation campaign can attribute each terminated run to property
// satisfaction, reproduction, or a traced retry-exhaustion abort.

// ReliabilityConfig tunes the retransmission service of one world.
type ReliabilityConfig struct {
	// RTO is the initial retransmission timeout (the scaled analogue of
	// the NAS T3410/T3310 values; default 200 ms).
	RTO time.Duration
	// Backoff multiplies the RTO after every retry (default 2 —
	// exponential backoff).
	Backoff float64
	// MaxRTO caps the backed-off timeout; 0 leaves it uncapped.
	MaxRTO time.Duration
	// MaxRetries bounds retransmissions per frame (default 4, matching
	// the NAS attempt counters); one more expiry aborts the transfer.
	MaxRetries int
}

func (c ReliabilityConfig) withDefaults() ReliabilityConfig {
	if c.RTO == 0 {
		c.RTO = 200 * time.Millisecond
	}
	if c.Backoff == 0 {
		c.Backoff = 2
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	return c
}

// transfer is one in-flight reliable frame.
type transfer struct {
	seq      uint32
	msg      types.Message
	src      *procRT
	to       string
	attempts int // retransmissions so far
	rto      time.Duration
	acked    bool
	// timer is the armed RTO for the current attempt, cancelled eagerly
	// on ack so no stale expiry event lingers in the scheduler;
	// deadline is its absolute expiry instant (for ArmedTimers).
	timer    *Timer
	deadline time.Duration
}

func (t *transfer) seqString() string { return strconv.FormatUint(uint64(t.seq), 10) }

// reliabService is the per-world retransmission state. It is driven
// entirely by the world's Sim, so runs stay deterministic.
type reliabService struct {
	w   *World
	cfg ReliabilityConfig
	// nextSeq numbers frames world-globally, so receiver-side dedup is
	// a single set lookup.
	nextSeq  uint32
	inflight map[uint32]*transfer
	// delivered marks sequence numbers already stepped into the
	// destination machine: a retransmitted frame whose original got
	// through is re-acked but never double-steps the FSM.
	delivered map[uint32]bool
}

// SetReliability enables the reliable-delivery layer with the given
// configuration (zero fields take defaults). It must be called before
// traffic flows; calling it again replaces the configuration but keeps
// in-flight state.
func (w *World) SetReliability(cfg ReliabilityConfig) {
	if w.reliab == nil {
		w.reliab = &reliabService{
			w:         w,
			nextSeq:   1,
			inflight:  make(map[uint32]*transfer),
			delivered: make(map[uint32]bool),
		}
	}
	w.reliab.cfg = cfg.withDefaults()
}

// ReliabilityEnabled reports whether the retransmission layer is on.
func (w *World) ReliabilityEnabled() bool { return w.reliab != nil }

// EnableReliability wires the operator's NAS retransmission timers into
// the world — the per-carrier values live on OperatorProfile.
func EnableReliability(w *World, p OperatorProfile) {
	w.SetReliability(p.NASRetrans)
}

// link returns the air-link parameters for frames travelling away from
// the given source node.
func (r *reliabService) link(from NodeID) LinkParams {
	if from == NodeNetwork {
		return r.w.Downlink
	}
	return r.w.Uplink
}

// lost applies the link's loss model to one frame.
func lost(link LinkParams, msg types.Message) bool {
	return (link.Dropper != nil && link.Dropper.Drop()) ||
		(link.DropFilter != nil && link.DropFilter(msg))
}

// send starts a reliable transfer of msg from src to the named proc on
// the other node: transmit, arm the RTO, retransmit on expiry.
func (r *reliabService) send(src *procRT, to string, msg types.Message) {
	t := &transfer{seq: r.nextSeq, msg: msg, src: src, to: to, rto: r.cfg.RTO}
	r.nextSeq++
	t.msg.Seq = t.seq
	r.inflight[t.seq] = t
	r.transmit(t)
	r.arm(t)
}

// transmit pushes one attempt of the frame onto the air link.
func (r *reliabService) transmit(t *transfer) {
	w := r.w
	link := r.link(t.src.node)
	if lost(link, t.msg) {
		w.Dropped++
		w.recordLoss(t.src, t.msg)
		return
	}
	msg := t.msg
	to := t.to
	w.Sim.After(link.delay(w.Sim)+w.processingDelay(to, msg.Kind), func() { r.receive(t) })
}

// receive handles one arriving frame copy at the destination node: it
// is always re-acked (the original ack may itself have been lost), and
// stepped into the destination machine exactly once.
func (r *reliabService) receive(t *transfer) {
	w := r.w
	r.sendAck(t)
	if r.delivered[t.seq] {
		w.Stats.Duplicates++
		sys := types.System(w.globals[names.GSys])
		w.record(trace.TypeInfo, sys, t.src.m.Spec().Name,
			"duplicate "+t.msg.Kind.String()+" (seq "+t.seqString()+") suppressed")
		return
	}
	r.delivered[t.seq] = true
	w.deliver(t.to, t.msg)
}

// sendAck returns a link-layer ack over the reverse link, subject to
// that link's own loss model; a lost ack is recovered by the sender's
// retransmission and the receiver's dedup.
func (r *reliabService) sendAck(t *transfer) {
	w := r.w
	reverse := r.w.Uplink
	if t.src.node == NodeDevice {
		reverse = r.w.Downlink
	}
	ack := types.Message{Kind: types.MsgLinkAck, Seq: t.seq, From: t.to, To: t.src.name}
	if lost(reverse, ack) {
		w.Stats.AcksLost++
		return
	}
	w.Sim.After(reverse.delay(w.Sim), func() { r.ack(t) })
}

// ack cancels the pending retransmission for the frame — eagerly: the
// armed RTO event is removed from the scheduler, not left to fire as a
// stale no-op that would advance the clock and hold a queue slot until
// its deadline. The acked flag stays as the dedup guard for duplicate
// acks of retransmitted copies.
func (r *reliabService) ack(t *transfer) {
	if t.acked {
		return
	}
	t.acked = true
	if t.timer != nil {
		t.timer.Cancel()
		t.timer = nil
	}
	delete(r.inflight, t.seq)
	r.w.Stats.Acks++
}

// arm schedules the RTO for the transfer's current attempt and records
// the handle so an ack can cancel it.
func (r *reliabService) arm(t *transfer) {
	t.deadline = r.w.Sim.Now() + t.rto
	t.timer = r.w.Sim.AfterTimer(t.rto, func() { r.expire(t) })
}

// expire fires when the RTO elapses without an ack: retransmit with
// backed-off timeout, or — past the retry budget — abort the transfer
// and synthesize a failure indication to the sender's machine.
func (r *reliabService) expire(t *transfer) {
	w := r.w
	if t.acked {
		return
	}
	t.timer = nil // this attempt's timer just fired
	w.Stats.Expiries++
	mod := t.src.m.Spec().Name
	w.record(trace.TypeExpiry, t.msg.System, mod,
		"RTO "+t.rto.String()+" expired for "+t.msg.Kind.String()+
			" (seq "+t.seqString()+", attempt "+strconv.Itoa(t.attempts+1)+")")
	if t.attempts >= r.cfg.MaxRetries {
		t.acked = true // no further timers act on this transfer
		delete(r.inflight, t.seq)
		w.Stats.Aborts++
		w.record(trace.TypeAbort, t.msg.System, mod,
			t.msg.Kind.String()+" (seq "+t.seqString()+") abandoned after "+strconv.Itoa(t.attempts+1)+" attempts")
		fail := types.Message{
			Kind:  types.MsgLinkFailure,
			Cause: types.CauseLowLayerFailure,
			Seq:   t.seq,
			From:  t.to,
			To:    t.src.name,
		}
		w.deliver(t.src.name, fail)
		return
	}
	t.attempts++
	t.rto = time.Duration(float64(t.rto) * r.cfg.Backoff)
	if r.cfg.MaxRTO > 0 && t.rto > r.cfg.MaxRTO {
		t.rto = r.cfg.MaxRTO
	}
	w.Stats.Retransmits++
	w.record(trace.TypeRetx, t.msg.System, mod,
		"retransmit "+t.msg.Kind.String()+" (seq "+t.seqString()+", attempt "+strconv.Itoa(t.attempts)+
			", next RTO "+t.rto.String()+")")
	r.transmit(t)
	r.arm(t)
}

// InFlight returns the number of unacknowledged reliable transfers.
func (w *World) InFlight() int {
	if w.reliab == nil {
		return 0
	}
	return len(w.reliab.inflight)
}

// ArmedTimer describes one live retransmission timer of the reliable
// layer: which frame it guards, when it will fire, and which attempt it
// belongs to.
type ArmedTimer struct {
	Seq      uint32
	Kind     types.MsgKind
	Deadline time.Duration
	Attempt  int
}

// ArmedTimers returns the live RTO timers in Seq order — the
// model-visible view of the reliable layer's timing state. An acked
// transfer's timer is cancelled eagerly, so it disappears from this
// list (and from Sim.Pending) the instant the ack lands.
func (w *World) ArmedTimers() []ArmedTimer {
	if w.reliab == nil {
		return nil
	}
	out := make([]ArmedTimer, 0, len(w.reliab.inflight))
	for _, t := range w.reliab.inflight {
		if t.timer.Pending() {
			out = append(out, ArmedTimer{Seq: t.seq, Kind: t.msg.Kind, Deadline: t.deadline, Attempt: t.attempts + 1})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
