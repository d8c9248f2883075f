package model

import (
	"encoding/binary"
	"fmt"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// This file adds discrete virtual time to the world: a monotone virtual
// clock, protocol timers armed with [earliest, latest] expiry windows,
// and timer expiry as a first-class schedulable step (StepTimer). The
// design follows the zone-abstraction idea from timed model checking:
//
//   - The clock (w.now) is monotone and never encoded. Only the armed
//     timers' windows *relative to the clock* enter Encode, so the
//     visited table keys on timer orderings, not absolute timestamps,
//     and time-shifted states collapse into one entry (ShiftTime is the
//     exported soundness witness).
//   - A timer is fireable iff its earliest expiry does not overtake any
//     other armed timer's latest expiry (lo <= min over all armed hi).
//     Firing advances the clock to max(now, lo), preserving the
//     invariant now <= hi for every armed timer. Message deliveries and
//     environment events remain untimed (enabled at any clock value),
//     so the engine enumerates exactly the admissible expiry-vs-delivery
//     orderings.
//   - An expiry with no enabled transition is a discard-fire step
//     (TransIdx = -1): the timer is consumed (and re-armed when
//     periodic) with no machine step, so late timers cannot wedge
//     exploration. Discard-fires of periodic zero-width ([0,0]) timers
//     are suppressed entirely — they would be byte-identical self-loops
//     — which is what makes the degenerate-bounds configuration's state
//     graph isomorphic to the untimed one (core's TestEngineEquivalence
//     compares the two).
//
// Worlds without EnableTiming are entirely unaffected: their encodings,
// step enumeration and apply paths are byte-for-byte what they were.

// TimerDef declares one protocol timer owned by a process (e.g. the
// periodic-TAU timer T3412 of a UE's EMM). Bounds are virtual-time
// ticks relative to arming: the timer may expire no earlier than Lo and
// no later than Hi after it was armed (0 <= Lo <= Hi).
type TimerDef struct {
	// Name identifies the timer within its process (e.g. "T3412"). For
	// symmetry-canonicalized worlds the name must be replica-agnostic:
	// corresponding timers of interchangeable replicas carry the same
	// name, so the canonical encoding is permutation-invariant.
	Name string
	// Proc is the owning process; expiry steps act on it.
	Proc string
	// Msg is the event delivered to the process on expiry (its From
	// field is overwritten with the timer name, making expiry steps
	// self-describing in traces and the fuzz codec).
	Msg types.Message
	// Lo and Hi bound the expiry window relative to arming. A
	// zero-width window (Lo == Hi) expires at an exact offset;
	// Lo == Hi == 0 with Periodic is the degenerate configuration whose
	// behavior is provably identical to an always-offered env event.
	Lo, Hi int64
	// ArmOnStart arms the timer when timing is enabled (EnableTiming).
	ArmOnStart bool
	// Periodic re-arms the timer when it fires (unless a hook already
	// re-armed it during the expiry transition).
	Periodic bool
	// ArmOn and CancelOn list transition labels of Proc that (re)arm or
	// cancel this timer when they fire — the spec-level hooks tying
	// timer lifecycles to protocol state changes.
	ArmOn    []string
	CancelOn []string
}

// timingConfig is the resolved, immutable timer-definition table shared
// by clones (like glayout, mutation is copy-on-write: ScaleTimerBounds
// builds a fresh config).
type timingConfig struct {
	defs []TimerDef
	// defProc resolves each def's Proc to its index in w.Procs.
	defProc []int32
}

// armedTimer is one armed instance: absolute window [lo, hi] plus the
// arming instant (kept so bound stretching can rescale in place).
// w.timers holds at most one instance per def, sorted by def index.
type armedTimer struct {
	def    int32
	arm    int64
	lo, hi int64
}

// timerBoundMax caps Hi so relative windows always fit the u32 fields
// of the canonical encoding.
const timerBoundMax = 1 << 31

// EnableTiming attaches timer definitions to the world and arms the
// ArmOnStart ones at the current clock. Passing an empty slice leaves
// the world untimed. For symmetry-canonicalized worlds, declare defs
// replica by replica in the same role order — the canonical encoding
// lists a replica's armed timers in definition order.
func (w *World) EnableTiming(defs []TimerDef) error {
	if len(defs) == 0 {
		w.timing, w.timers = nil, nil
		w.now = 0
		return nil
	}
	cfg := &timingConfig{
		defs:    append([]TimerDef(nil), defs...),
		defProc: make([]int32, len(defs)),
	}
	seen := make(map[string]bool, len(defs))
	for i := range cfg.defs {
		d := &cfg.defs[i]
		if d.Name == "" {
			return fmt.Errorf("model: timing: def %d has no name", i)
		}
		if d.Lo < 0 || d.Hi < d.Lo || d.Hi > timerBoundMax {
			return fmt.Errorf("model: timing: timer %s/%s bounds [%d, %d] invalid (want 0 <= lo <= hi <= %d)",
				d.Proc, d.Name, d.Lo, d.Hi, int64(timerBoundMax))
		}
		if d.Msg.Kind == types.MsgNone {
			return fmt.Errorf("model: timing: timer %s/%s has no expiry message", d.Proc, d.Name)
		}
		pi, ok := w.procIdx[d.Proc]
		if !ok {
			return fmt.Errorf("model: timing: timer %s owned by unknown process %q", d.Name, d.Proc)
		}
		cfg.defProc[i] = int32(pi)
		key := d.Proc + "\x00" + d.Name
		if seen[key] {
			return fmt.Errorf("model: timing: duplicate timer %s/%s", d.Proc, d.Name)
		}
		seen[key] = true
	}
	w.timing = cfg
	w.timers = w.timers[:0]
	for i := range cfg.defs {
		if cfg.defs[i].ArmOnStart {
			w.armTimer(int32(i))
		}
	}
	return nil
}

// TimingEnabled reports whether the world carries timer definitions.
func (w *World) TimingEnabled() bool { return w.timing != nil }

// Now returns the current virtual time. The clock is monotone: Apply
// never decreases it (Restore rewinds it with the rest of the state).
func (w *World) Now() int64 { return w.now }

// TimerDefs returns a copy of the timer-definition table.
func (w *World) TimerDefs() []TimerDef {
	if w.timing == nil {
		return nil
	}
	return append([]TimerDef(nil), w.timing.defs...)
}

// ArmedTimerInfo describes one armed timer for reporting and tests:
// absolute window bounds at the current clock.
type ArmedTimerInfo struct {
	Name, Proc string
	Lo, Hi     int64
}

// ArmedTimers returns the armed-timer set in definition order.
func (w *World) ArmedTimers() []ArmedTimerInfo {
	if len(w.timers) == 0 {
		return nil
	}
	out := make([]ArmedTimerInfo, 0, len(w.timers))
	for _, t := range w.timers {
		d := &w.timing.defs[t.def]
		out = append(out, ArmedTimerInfo{Name: d.Name, Proc: d.Proc, Lo: t.lo, Hi: t.hi})
	}
	return out
}

// TimerEvents returns one expiry directive per timer definition (Msg
// with From set to the timer name) — the fuzzer's timing-mutation pool.
func (w *World) TimerEvents() []EnvEvent {
	if w.timing == nil {
		return nil
	}
	out := make([]EnvEvent, 0, len(w.timing.defs))
	for i := range w.timing.defs {
		d := &w.timing.defs[i]
		msg := d.Msg
		msg.From = d.Name
		out = append(out, EnvEvent{Proc: d.Proc, Msg: msg})
	}
	return out
}

// ShiftTime translates the clock and every armed window by d. It is the
// zone-abstraction soundness witness: Encode, step enumeration and all
// property monitors are invariant under it, so states differing only by
// an absolute time shift are one visited-set entry.
func (w *World) ShiftTime(d int64) {
	w.now += d
	for i := range w.timers {
		w.timers[i].arm += d
		w.timers[i].lo += d
		w.timers[i].hi += d
	}
}

// ScaleTimerBounds rescales one timer definition's window to
// (Lo*loPct/100, Hi*hiPct/100), copy-on-write so worlds sharing the
// old config are unaffected, and rescales any armed instance from its
// arming instant. Armed windows are clamped to keep the now <= hi
// invariant. Returns false if the world is untimed or no such timer
// exists — the fuzzer's bound-stretch mutation is a no-op then.
func (w *World) ScaleTimerBounds(proc, name string, loPct, hiPct int) bool {
	if w.timing == nil || loPct < 0 || hiPct < 0 {
		return false
	}
	di := -1
	for i := range w.timing.defs {
		if w.timing.defs[i].Proc == proc && w.timing.defs[i].Name == name {
			di = i
			break
		}
	}
	if di < 0 {
		return false
	}
	cfg := &timingConfig{
		defs:    append([]TimerDef(nil), w.timing.defs...),
		defProc: w.timing.defProc,
	}
	d := &cfg.defs[di]
	d.Lo = d.Lo * int64(loPct) / 100
	d.Hi = d.Hi * int64(hiPct) / 100
	if d.Hi < d.Lo {
		d.Hi = d.Lo
	}
	if d.Hi > timerBoundMax {
		d.Hi = timerBoundMax
	}
	if d.Lo > d.Hi {
		d.Lo = d.Hi
	}
	w.timing = cfg
	for i := range w.timers {
		if w.timers[i].def != int32(di) {
			continue
		}
		t := &w.timers[i]
		t.lo, t.hi = t.arm+d.Lo, t.arm+d.Hi
		if t.hi < w.now {
			t.hi = w.now
		}
		if t.lo > t.hi {
			t.lo = t.hi
		}
	}
	return true
}

// timerArmed reports whether def di has an armed instance.
func (w *World) timerArmed(di int32) bool {
	for _, t := range w.timers {
		if t.def == di {
			return true
		}
	}
	return false
}

// armTimer (re)arms def di at the current clock, keeping w.timers
// sorted by def index with at most one instance per def.
func (w *World) armTimer(di int32) {
	d := &w.timing.defs[di]
	t := armedTimer{def: di, arm: w.now, lo: w.now + d.Lo, hi: w.now + d.Hi}
	for i := range w.timers {
		if w.timers[i].def == di {
			w.timers[i] = t
			return
		}
		if w.timers[i].def > di {
			w.timers = append(w.timers, armedTimer{})
			copy(w.timers[i+1:], w.timers[i:])
			w.timers[i] = t
			return
		}
	}
	w.timers = append(w.timers, t)
}

// cancelTimer disarms def di if armed.
func (w *World) cancelTimer(di int32) {
	for i := range w.timers {
		if w.timers[i].def == di {
			w.timers = append(w.timers[:i], w.timers[i+1:]...)
			return
		}
	}
}

// timerHooks fires the ArmOn/CancelOn lifecycle hooks of every timer
// owned by proc for the just-fired transition label. Cancels run before
// arms so a label listed in both leaves the timer armed.
func (w *World) timerHooks(proc, label string) {
	if w.timing == nil || label == "" {
		return
	}
	for di := range w.timing.defs {
		d := &w.timing.defs[di]
		if d.Proc != proc {
			continue
		}
		for _, l := range d.CancelOn {
			if l == label {
				w.cancelTimer(int32(di))
				break
			}
		}
		for _, l := range d.ArmOn {
			if l == label {
				w.armTimer(int32(di))
				break
			}
		}
	}
}

// StepsTimerAppend appends the admissible timer-expiry steps: a timer
// may fire iff its earliest expiry does not exceed any armed timer's
// latest expiry (otherwise some other timer must fire first). Each
// fireable timer contributes one StepTimer per enabled transition on
// its expiry message, or a single discard-fire (TransIdx = -1) when the
// process ignores it — except the provably unobservable discard-fire of
// a periodic zero-width timer, which is suppressed (see file comment).
func (w *World) StepsTimerAppend(steps []Step) []Step {
	if w.timing == nil || len(w.timers) == 0 {
		return steps
	}
	minHi := w.timers[0].hi
	for _, t := range w.timers[1:] {
		if t.hi < minHi {
			minHi = t.hi
		}
	}
	for pos := range w.timers {
		t := &w.timers[pos]
		if t.lo > minHi {
			continue
		}
		d := &w.timing.defs[t.def]
		p := w.Procs[w.timing.defProc[t.def]]
		msg := d.Msg
		msg.From = d.Name
		ev := fsm.EvMsg(msg)
		w.enbuf = p.M.EnabledAppend(w.ctxFor(p), ev, w.enbuf[:0])
		if len(w.enbuf) == 0 {
			if d.Periodic && d.Lo == 0 && d.Hi == 0 {
				continue
			}
			steps = append(steps, Step{Kind: StepTimer, Proc: p.Name, Pos: pos, TransIdx: -1, Msg: msg})
			continue
		}
		for _, ti := range w.enbuf {
			steps = append(steps, Step{Kind: StepTimer, Proc: p.Name, Pos: pos, TransIdx: ti, Msg: msg})
		}
	}
	return steps
}

// applyTimer executes a StepTimer: consume the armed timer, advance the
// clock into its window, fire the transition (if any) with its
// lifecycle hooks, and re-arm when periodic. Admissibility (the
// lo <= min hi rule) is an enumeration-time concern; like replayed
// drops, a recorded timer step applies verbatim.
func (w *World) applyTimer(p *Proc, s Step) (Step, error) {
	if w.timing == nil {
		return s, fmt.Errorf("model: apply: timer step %s/%s on an untimed world", s.Proc, s.Msg.From)
	}
	if s.Pos < 0 || s.Pos >= len(w.timers) {
		return s, fmt.Errorf("model: apply: timer position %d out of range", s.Pos)
	}
	t := w.timers[s.Pos]
	d := &w.timing.defs[t.def]
	if d.Proc != s.Proc || d.Name != s.Msg.From {
		return s, fmt.Errorf("model: apply: timer step %s/%s does not match armed %s/%s at position %d",
			s.Proc, s.Msg.From, d.Proc, d.Name, s.Pos)
	}
	w.timers = append(w.timers[:s.Pos], w.timers[s.Pos+1:]...)
	if t.lo > w.now {
		w.now = t.lo
	}
	if s.TransIdx >= 0 {
		c := w.ctxFor(p)
		tr := p.M.Apply(c, fsm.EvMsg(s.Msg), s.TransIdx)
		s.Label = tr.Name
		s.Notes = c.takeNotes()
		s.Misrouted, s.Dropped = c.misrouted, c.dropped
		w.timerHooks(s.Proc, tr.Name)
	}
	if d.Periodic && !w.timerArmed(t.def) {
		w.armTimer(t.def)
	}
	return s, nil
}

// encodeTimers appends the zone-abstracted armed-timer section: a u16
// count, then per armed timer (definition order) the u16 def index and
// the u32 window bounds relative to the clock. The earliest bound
// clamps at zero — an already-fireable timer's overdue amount is
// behaviorally irrelevant (firing sets now = max(now, lo), a no-op when
// lo <= now), so states differing only there correctly collapse.
func (w *World) encodeTimers(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.timers)))
	for i := range w.timers {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(w.timers[i].def))
		buf = w.encodeTimerRel(buf, &w.timers[i])
	}
	return buf
}

// encodeTimerRel appends one timer's zone-relative window (the shared
// tail of the plain and canonical encodings).
func (w *World) encodeTimerRel(buf []byte, t *armedTimer) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(max(t.lo-w.now, 0)))
	return binary.LittleEndian.AppendUint32(buf, uint32(t.hi-w.now))
}
