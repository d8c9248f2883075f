package model

import (
	"fmt"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// StepKind classifies an atomic world transition.
type StepKind uint8

const (
	// StepDeliver delivers a queued message to its process and fires
	// one enabled transition.
	StepDeliver StepKind = iota + 1
	// StepDrop removes a queued message without delivery (lossy
	// channel).
	StepDrop
	// StepDiscard delivers a queued message that no transition accepts;
	// the message is consumed with no state change (NAS discards
	// unexpected messages).
	StepDiscard
	// StepEnv injects an environment event (user action, timer,
	// operator decision) and fires one enabled transition.
	StepEnv
	// StepTimer fires an armed virtual-time timer (timing.go): the
	// clock advances into the timer's window and the expiry message
	// fires one enabled transition, or none (TransIdx = -1, a
	// discard-fire consuming the expiry).
	StepTimer
)

func (k StepKind) String() string {
	switch k {
	case StepDeliver:
		return "deliver"
	case StepDrop:
		return "drop"
	case StepDiscard:
		return "discard"
	case StepEnv:
		return "env"
	case StepTimer:
		return "timer"
	default:
		return fmt.Sprintf("StepKind(%d)", uint8(k))
	}
}

// Step is one atomic transition of the world. Steps are value types so
// counterexample paths can be stored and replayed.
type Step struct {
	Kind StepKind
	// Proc is the process acting.
	Proc string
	// Pos is the queue index of the message (Deliver/Drop/Discard).
	Pos int
	// TransIdx is the index of the fired transition in the process's
	// spec (Deliver/Env).
	TransIdx int
	// Msg is the message delivered, dropped or injected.
	Msg types.Message
	// Label names the fired transition (filled by Apply).
	Label string
	// Notes carries trace output emitted while applying the step.
	Notes []string
	// Misrouted and Dropped count sends lost while applying this step
	// (unknown destination / full inbox); filled by Apply. The checker
	// sums them into its Result.
	Misrouted int
	Dropped   int
}

func (s Step) String() string {
	switch s.Kind {
	case StepDrop:
		return fmt.Sprintf("%s: DROP %s", s.Proc, s.Msg)
	case StepDiscard:
		return fmt.Sprintf("%s: discard %s", s.Proc, s.Msg)
	case StepEnv:
		return fmt.Sprintf("%s: env %s -> %s", s.Proc, s.Msg, s.Label)
	case StepTimer:
		if s.TransIdx < 0 {
			return fmt.Sprintf("%s: timer %s fires (unconsumed)", s.Proc, s.Msg.From)
		}
		return fmt.Sprintf("%s: timer %s fires -> %s", s.Proc, s.Msg.From, s.Label)
	default:
		return fmt.Sprintf("%s: recv %s -> %s", s.Proc, s.Msg, s.Label)
	}
}

// EnvEvent is a candidate environment event offered by a scenario.
type EnvEvent struct {
	// Proc is the process the event targets.
	Proc string
	// Msg is the event payload.
	Msg types.Message
}

// Steps enumerates every enabled step of the world: for each process
// with a non-empty inbox, the deliverable positions (head only, or all
// positions when the channel reorders) with each enabled transition
// branch, plus drop steps for lossy channels, plus the offered
// environment events that have at least one enabled transition.
//
// Messages with no enabled transition yield a StepDiscard so that
// blocked queues cannot wedge exploration.
func (w *World) Steps(env []EnvEvent) []Step {
	return w.StepsAppend(nil, env)
}

// StepsAppend is Steps appending into a caller-owned slice — the
// allocation-free form for the checker, which keeps one steps buffer
// per search depth. Guard evaluation reuses the world's scratch
// context and enabled-index buffer.
func (w *World) StepsAppend(steps []Step, env []EnvEvent) []Step {
	steps = w.StepsQueueAppend(steps)
	steps = w.StepsEnvAppend(steps, env)
	return w.StepsTimerAppend(steps)
}

// StepsQueueAppend appends only the message-driven steps (deliveries,
// drops, discards). The fuzzing executor drains inboxes between
// environment injections with this half alone, skipping the env-guard
// evaluation StepsAppend would repeat at every drain step.
func (w *World) StepsQueueAppend(steps []Step) []Step {
	for i, p := range w.Procs {
		ch := w.Chans[i]
		if ch.Name != p.Name {
			ch = w.Chan(p.Name)
		}
		if ch == nil || len(ch.queue) == 0 {
			continue
		}
		last := 0
		if ch.Reorder {
			last = len(ch.queue) - 1
		}
		for pos := 0; pos <= last; pos++ {
			msg := ch.queue[pos]
			ev := fsm.EvMsg(msg)
			w.enbuf = p.M.EnabledAppend(w.ctxFor(p), ev, w.enbuf[:0])
			if len(w.enbuf) == 0 {
				steps = append(steps, Step{Kind: StepDiscard, Proc: p.Name, Pos: pos, Msg: msg})
			}
			for _, ti := range w.enbuf {
				steps = append(steps, Step{Kind: StepDeliver, Proc: p.Name, Pos: pos, TransIdx: ti, Msg: msg})
			}
			if ch.Lossy {
				steps = append(steps, Step{Kind: StepDrop, Proc: p.Name, Pos: pos, Msg: msg})
			}
		}
	}
	return steps
}

// StepsEnvAppend appends only the environment-event steps enabled for
// the offered events — the injection half of StepsAppend.
func (w *World) StepsEnvAppend(steps []Step, env []EnvEvent) []Step {
	for _, e := range env {
		p := w.Proc(e.Proc)
		if p == nil {
			continue
		}
		ev := fsm.EvMsg(e.Msg)
		w.enbuf = p.M.EnabledAppend(w.ctxFor(p), ev, w.enbuf[:0])
		for _, ti := range w.enbuf {
			steps = append(steps, Step{Kind: StepEnv, Proc: e.Proc, TransIdx: ti, Msg: e.Msg})
		}
	}
	return steps
}

// Apply executes the step in place and returns it annotated with the
// transition label and trace notes. The step must have been produced by
// Steps on an equivalent world.
func (w *World) Apply(s Step) (Step, error) {
	p := w.Proc(s.Proc)
	if p == nil {
		return s, fmt.Errorf("model: apply: unknown process %q", s.Proc)
	}
	switch s.Kind {
	case StepDrop, StepDiscard:
		ch := w.Chan(s.Proc)
		if ch == nil || s.Pos >= len(ch.queue) {
			return s, fmt.Errorf("model: apply: %s position %d out of range", s.Kind, s.Pos)
		}
		// In-place removal is safe: every world owns its queue backing
		// (clones copy queues), and Save/Restore snapshots them.
		ch.remove(s.Pos)
		return s, nil
	case StepDeliver:
		ch := w.Chan(s.Proc)
		if ch == nil || s.Pos >= len(ch.queue) {
			return s, fmt.Errorf("model: apply: deliver position %d out of range", s.Pos)
		}
		msg := ch.queue[s.Pos]
		ch.remove(s.Pos)
		c := w.ctxFor(p)
		tr := p.M.Apply(c, fsm.EvMsg(msg), s.TransIdx)
		s.Label = tr.Name
		s.Notes = c.takeNotes()
		s.Misrouted, s.Dropped = c.misrouted, c.dropped
		if w.timing != nil {
			w.timerHooks(s.Proc, s.Label)
		}
		return s, nil
	case StepEnv:
		c := w.ctxFor(p)
		tr := p.M.Apply(c, fsm.EvMsg(s.Msg), s.TransIdx)
		s.Label = tr.Name
		s.Notes = c.takeNotes()
		s.Misrouted, s.Dropped = c.misrouted, c.dropped
		if w.timing != nil {
			w.timerHooks(s.Proc, s.Label)
		}
		return s, nil
	case StepTimer:
		return w.applyTimer(p, s)
	default:
		return s, fmt.Errorf("model: apply: bad step kind %v", s.Kind)
	}
}

// Inject places a message directly into a process inbox (used by test
// harnesses and by the checker's initial-state setup).
func (w *World) Inject(to string, msg types.Message) error {
	ch := w.Chan(to)
	if ch == nil {
		return fmt.Errorf("model: inject: unknown process %q", to)
	}
	msg.To = to
	ch.Push(msg)
	return nil
}

// QueueLen returns the inbox depth of a process (0 if unknown).
func (w *World) QueueLen(proc string) int {
	if ch := w.Chan(proc); ch != nil {
		return len(ch.queue)
	}
	return 0
}

// Quiescent reports whether no messages are pending anywhere.
func (w *World) Quiescent() bool {
	for _, c := range w.Chans {
		if len(c.queue) > 0 {
			return false
		}
	}
	return true
}
