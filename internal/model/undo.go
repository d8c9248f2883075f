package model

import (
	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// Undo is reusable snapshot storage for the world's apply/undo
// discipline: the sequential checker saves the world once per search
// node and restores after exploring each child, instead of cloning a
// world per transition. The zero value is ready to use; Save and
// Restore reuse the record's slabs across calls, so a DFS needs one
// Undo per depth and allocates only while the search deepens.
//
// Stats are deliberately NOT part of the snapshot — they are monotone
// work tallies (like the checker's transition count), not logical
// state.
type Undo struct {
	machines []fsm.MachineUndo
	queues   []queueUndo
	glay     *glayout
	gvals    []int32
	// now/timers snapshot the virtual clock and armed-timer set. The
	// timing config pointer is not saved: steps never replace it (only
	// ScaleTimerBounds does, outside the search).
	now    int64
	timers []armedTimer
}

type queueUndo struct {
	stamp uint64
	msgs  []types.Message
}

// Save records the world's complete logical state into u.
func (w *World) Save(u *Undo) {
	for len(u.machines) < len(w.machines) {
		u.machines = append(u.machines, fsm.MachineUndo{})
	}
	u.machines = u.machines[:len(w.machines)]
	for i := range w.machines {
		w.machines[i].Save(&u.machines[i])
	}
	for len(u.queues) < len(w.chans) {
		u.queues = append(u.queues, queueUndo{})
	}
	u.queues = u.queues[:len(w.chans)]
	for i := range w.chans {
		q := &u.queues[i]
		q.stamp, q.msgs = w.chans[i].stamp, append(q.msgs[:0], w.chans[i].queue...)
	}
	u.glay = w.glay
	u.gvals = append(u.gvals[:0], w.gvals...)
	u.now = w.now
	u.timers = append(u.timers[:0], w.timers...)
}

// Restore rewinds the world to a Save point taken on this world. The
// snapshot remains valid, so one Save can back out any number of
// applied steps in turn. The cost follows what the steps touched: a
// machine or queue still carrying its saved stamp is left alone, a
// changed one gets the saved content and stamp back. Globals and timers
// are a few words and are copied every time.
func (w *World) Restore(u *Undo) {
	for i := range w.machines {
		w.machines[i].Restore(&u.machines[i])
	}
	for i := range w.chans {
		if c, q := &w.chans[i], &u.queues[i]; c.stamp != q.stamp {
			c.queue = append(c.queue[:0], q.msgs...)
			c.stamp = q.stamp
		}
	}
	w.glay = u.glay
	w.gvals = append(w.gvals[:0], u.gvals...)
	w.now = u.now
	w.timers = append(w.timers[:0], u.timers...)
}

// ApplyUndo is Apply preceded by Save: it executes the step in place
// after snapshotting the world into u, so the caller can Restore to
// back the step out.
func (w *World) ApplyUndo(s Step, u *Undo) (Step, error) {
	w.Save(u)
	return w.Apply(s)
}
