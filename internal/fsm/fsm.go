// Package fsm provides a small declarative finite-state-machine engine
// shared by CNetVerifier's two backends: the explicit-state model
// checker (internal/check) and the runtime protocol stacks
// (internal/device, internal/elements).
//
// A protocol is written once as a Spec — a transition table with guards
// and actions — and then instantiated as Machines. Machine state
// (current control state plus integer-valued local variables) has a
// canonical byte encoding so the model checker can hash and deduplicate
// global states.
package fsm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"cnetverifier/internal/types"
)

// State is a named control state of a machine.
type State string

// Event is an occurrence a machine can react to: the delivery of a
// signaling message, a user action, or a timer.
type Event struct {
	Msg types.Message
}

// Kind returns the message kind carried by the event.
func (e Event) Kind() types.MsgKind { return e.Msg.Kind }

func (e Event) String() string { return e.Msg.String() }

// Ev is shorthand for constructing an event from a message kind.
func Ev(kind types.MsgKind) Event {
	return Event{Msg: types.Message{Kind: kind}}
}

// EvMsg constructs an event from a full message.
func EvMsg(m types.Message) Event { return Event{Msg: m} }

// Ctx is the machine's view of the world during a transition. Both the
// model checker's abstract world and the emulator's live stack
// implement it.
type Ctx interface {
	// Get returns a variable. Names with the "g." prefix resolve to
	// globals shared by all machines; other names are machine-local.
	Get(name string) int
	// Set assigns a variable, with the same scoping rule as Get.
	Set(name string, v int)
	// GetI and SetI are the indexed fast path for machine-local
	// variables: slot is a Spec.Slot index into the machine's variable
	// slab. They are resolved by the machine wrapper installed during
	// Enabled/Apply/Step; backend contexts (checker world, emulators,
	// recorders) only ever see the string forms and may implement these
	// as stubs.
	GetI(slot int32) int32
	SetI(slot int32, v int32)
	// Send posts a message toward the named destination (another
	// machine or element). Delivery semantics (reliable, lossy,
	// delayed) are owned by the backend.
	Send(to string, msg types.Message)
	// Output emits a local event that other machines on the same node
	// react to immediately (cross-layer interface, e.g. EMM→RRC).
	Output(msg types.Message)
	// Trace records a human-readable note for the trace collector.
	Trace(format string, args ...any)
}

// Guard decides whether a transition is enabled. A nil guard is always
// enabled.
type Guard func(c Ctx, e Event) bool

// Action runs the transition's side effects. A nil action does nothing.
type Action func(c Ctx, e Event)

// Transition is one row of a Spec's transition table.
type Transition struct {
	// Name labels the transition for traces and counterexamples.
	Name string
	// From is the source state. The special value Any matches every
	// state (used for power-off style resets).
	From State
	// On is the triggering message kind.
	On types.MsgKind
	// Guard optionally restricts the transition.
	Guard Guard
	// Action optionally performs side effects.
	Action Action
	// To is the destination state. The special value Same keeps the
	// current state (useful for self-loops that only run actions).
	To State
}

const (
	// Any is a wildcard source state.
	Any State = "*"
	// Same keeps the machine in its current state.
	Same State = "="
)

// Spec is an immutable machine definition.
type Spec struct {
	// Name identifies the protocol/machine type (e.g. "EMM-UE").
	Name string
	// Proto is the 3GPP protocol this spec models, if any.
	Proto types.Protocol
	// Init is the initial control state.
	Init State
	// Vars lists the local variables and their initial values. Only
	// variables declared here are encoded into checker state.
	Vars map[string]int
	// Transitions is the transition table. When several transitions are
	// enabled for the same event the checker explores each branch; the
	// runtime engine takes the first (table order is priority order).
	Transitions []Transition

	// derived holds what Derived memoized. A Spec must not be copied.
	derived sync.Map
}

// Derived returns the value build computes for key on this spec,
// building it on first use (concurrent first uses may both build; one
// result wins for everyone). The spec owns what is derived from it —
// its Validate verdict, its variable layout, the lint passes' probe
// results — so all of it lives exactly as long as the spec: the
// emulator's stack specs, built once per configuration and shared by
// every replay, keep theirs for the process, while a spec built for one
// model world is collected with it. Keys are an unexported type per
// caller, as with context.Value.
func (s *Spec) Derived(key any, build func() any) any {
	if v, ok := s.derived.Load(key); ok {
		return v
	}
	v, _ := s.derived.LoadOrStore(key, build())
	return v
}

type validateKey struct{}

// validated boxes a Validate verdict for Derived (a nil error is a valid
// memo entry).
type validated struct{ err error }

// Validate checks the spec for structural problems: an empty name,
// a missing initial state, transitions from undeclared states (other
// than wildcards), or duplicate variable declarations. The spec is
// immutable, so the verdict is computed once and memoized.
func (s *Spec) Validate() error {
	return s.Derived(validateKey{}, func() any { return validated{s.validate()} }).(validated).err
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("fsm: spec has empty name")
	}
	if s.Init == "" {
		return fmt.Errorf("fsm %s: empty initial state", s.Name)
	}
	states := s.States()
	known := make(map[State]bool, len(states))
	for _, st := range states {
		known[st] = true
	}
	for i, t := range s.Transitions {
		if t.From == "" || t.To == "" {
			return fmt.Errorf("fsm %s: transition %d (%s) has empty state", s.Name, i, t.Name)
		}
		if t.On == types.MsgNone {
			return fmt.Errorf("fsm %s: transition %d (%s) has no trigger", s.Name, i, t.Name)
		}
		if t.To != Same && t.To != Any && !known[t.To] {
			// Unreachable: States() collects every To; defensive only.
			return fmt.Errorf("fsm %s: transition %d (%s) targets unknown state %q", s.Name, i, t.Name, t.To)
		}
	}
	return nil
}

// States returns the set of control states mentioned by the spec, in
// sorted order, excluding wildcards.
func (s *Spec) States() []State {
	set := map[State]bool{s.Init: true}
	for _, t := range s.Transitions {
		if t.From != Any {
			set[t.From] = true
		}
		if t.To != Same && t.To != Any {
			set[t.To] = true
		}
	}
	out := make([]State, 0, len(set))
	for st := range set {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Machine is a live instance of a Spec. Its state is flat: declared
// variables live in an []int32 slab indexed by the spec's layout
// (see intern.go); variables introduced at runtime go to a small
// sorted overflow list. Machines are plain values — the checker packs
// a world's machines into one contiguous slice and copies them with
// CloneInto, allocation-free once the destination slabs exist.
type Machine struct {
	spec  *Spec
	lay   *layout
	state State
	vars  []int32   // declared variables, slot order
	over  []overVar // runtime-grown variables, sorted by name
	// stamp names the current content: every mutation takes a fresh one
	// from tick, which only ever grows, and Restore puts a saved stamp
	// back only together with the content saved with it. Over a
	// machine's lifetime equal stamps therefore mean equal content.
	stamp, tick uint64
	// enc memoizes the canonical encoding (len 0 = stale). Mutators
	// invalidate it; unchanged machines of a world re-encode by memcpy.
	enc []byte
	// mc is the reusable wrapper context for Enabled/Apply; never
	// shared between machines (CloneInto does not copy it).
	mc *machineCtx
}

// New instantiates a machine in the spec's initial state.
func New(spec *Spec) *Machine {
	lay := layoutFor(spec)
	m := &Machine{spec: spec, lay: lay, state: spec.Init}
	m.vars = append(make([]int32, 0, len(lay.init)), lay.init...)
	return m
}

// Spec returns the machine's definition.
func (m *Machine) Spec() *Spec { return m.spec }

// Name returns the spec name.
func (m *Machine) Name() string { return m.spec.Name }

// State returns the current control state.
func (m *Machine) State() State { return m.state }

// Stamp returns the change stamp of the machine's current content.
func (m *Machine) Stamp() uint64 { return m.stamp }

// touch announces a mutation: a fresh stamp, a stale encoding memo.
func (m *Machine) touch() {
	m.tick++
	m.stamp = m.tick
	m.enc = m.enc[:0]
}

// SetState forces the control state (used by test harnesses and by the
// checker when replaying counterexamples).
func (m *Machine) SetState(s State) {
	m.touch()
	m.state = s
}

// Var returns a local variable value (zero if undeclared).
func (m *Machine) Var(name string) int {
	if i, ok := m.lay.slot[name]; ok {
		return int(m.vars[i])
	}
	if i, ok := overIdx(m.over, name); ok {
		return int(m.over[i].val)
	}
	return 0
}

// SetVar assigns a local variable. Undeclared names grow the sorted
// overflow list (each machine owns its list, so growth never touches a
// clone's backing array).
func (m *Machine) SetVar(name string, v int) {
	if i, ok := m.lay.slot[name]; ok {
		m.setSlot(i, int32(v))
		return
	}
	m.touch()
	i, ok := overIdx(m.over, name)
	if ok {
		m.over[i].val = int32(v)
		return
	}
	m.over = append(m.over, overVar{})
	copy(m.over[i+1:], m.over[i:])
	m.over[i] = overVar{name: SymString(name), val: int32(v)}
}

// Enabled returns the indices (into the spec's transition table) of all
// transitions enabled for the event in the current state.
func (m *Machine) Enabled(c Ctx, e Event) []int {
	return m.EnabledAppend(c, e, nil)
}

// EnabledAppend appends the enabled transition indices to dst — the
// allocation-free form of Enabled for callers that keep a scratch
// slice.
func (m *Machine) EnabledAppend(c Ctx, e Event, dst []int) []int {
	var mc *machineCtx
	for i := range m.spec.Transitions {
		t := &m.spec.Transitions[i]
		if t.On != e.Kind() {
			continue
		}
		if t.From != Any && t.From != m.state {
			continue
		}
		if t.Guard != nil {
			if mc == nil {
				mc = m.wrap(c)
			}
			if !t.Guard(mc, e) {
				continue
			}
		}
		dst = append(dst, i)
	}
	return dst
}

// Apply fires the i-th transition of the spec for the event. The caller
// must have obtained i from Enabled with an equivalent context.
func (m *Machine) Apply(c Ctx, e Event, i int) Transition {
	t := m.spec.Transitions[i]
	if t.Action != nil {
		t.Action(m.wrap(c), e)
	}
	if t.To != Same && t.To != m.state {
		m.touch()
		m.state = t.To
	}
	return t
}

// setSlot writes a declared variable; writing the value already there
// is not a mutation.
func (m *Machine) setSlot(slot int32, v int32) {
	if m.vars[slot] != v {
		m.touch()
		m.vars[slot] = v
	}
}

// Step fires the first enabled transition for the event, returning the
// transition taken and true, or a zero transition and false when no
// transition is enabled (the event is discarded — matching NAS behavior
// of ignoring unexpected messages).
func (m *Machine) Step(c Ctx, e Event) (Transition, bool) {
	en := m.Enabled(c, e)
	if len(en) == 0 {
		return Transition{}, false
	}
	return m.Apply(c, e, en[0]), true
}

// Clone returns a deep copy of the machine sharing the immutable spec
// and layout.
func (m *Machine) Clone() *Machine {
	n := &Machine{}
	m.CloneInto(n)
	return n
}

// CloneInto makes dst a deep copy of m, reusing dst's slabs when they
// have capacity — the allocation-free clone the checker's world pool
// relies on. dst's scratch context is left untouched (never shared).
// For dst this is a mutation like any other: it takes a fresh stamp of
// its own, never m's.
func (m *Machine) CloneInto(dst *Machine) {
	dst.touch()
	dst.spec, dst.lay, dst.state = m.spec, m.lay, m.state
	dst.vars = append(dst.vars[:0], m.vars...)
	dst.over = append(dst.over[:0], m.over...)
	dst.enc = append(dst.enc[:0], m.enc...)
}

// MachineUndo is reusable storage for Save/Restore — the machine half
// of the model layer's apply/undo discipline. The zero value is ready
// to use; Save and Restore reuse its slabs across calls.
type MachineUndo struct {
	stamp uint64
	state State
	vars  []int32
	over  []overVar
}

// Save records the machine's complete logical state into u.
func (m *Machine) Save(u *MachineUndo) {
	u.stamp = m.stamp
	u.state = m.state
	u.vars = append(u.vars[:0], m.vars...)
	u.over = append(u.over[:0], m.over...)
}

// Restore rewinds the machine to a Save point taken on this machine.
// One still carrying the saved stamp has not changed since and is left
// alone, encoding memo included.
func (m *Machine) Restore(u *MachineUndo) {
	if m.stamp == u.stamp {
		return
	}
	m.state = u.state
	m.vars = append(m.vars[:0], u.vars...)
	m.over = append(m.over[:0], u.over...)
	m.stamp = u.stamp
	m.enc = m.enc[:0]
}

// Load sets the machine to the content u was saved from, possibly by
// another machine of the same spec. Unlike Restore it is a mutation
// like any other: a fresh stamp of the machine's own, a stale encoding
// memo.
func (m *Machine) Load(u *MachineUndo) {
	m.touch()
	m.state = u.state
	m.vars = append(m.vars[:0], u.vars...)
	m.over = append(m.over[:0], u.over...)
}

// Encode appends the canonical binary encoding of the machine's state
// to buf: state name (NUL-terminated), the declared variable slab in
// slot order (4 bytes LE each; the count is fixed by the spec layout),
// then the overflow count and the sorted overflow name/value pairs.
// The encoding is memoized until the next mutation, so unchanged
// machines cost one memcpy per world encode.
func (m *Machine) Encode(buf []byte) []byte {
	if len(m.enc) == 0 {
		m.enc = m.encode(m.enc)
	}
	return append(buf, m.enc...)
}

func (m *Machine) encode(dst []byte) []byte {
	var tmp [4]byte
	dst = append(dst, m.state...)
	dst = append(dst, 0)
	for _, v := range m.vars {
		binary.LittleEndian.PutUint32(tmp[:], uint32(v))
		dst = append(dst, tmp[:]...)
	}
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(m.over)))
	dst = append(dst, tmp[:2]...)
	for _, ov := range m.over {
		dst = append(dst, ov.name...)
		dst = append(dst, 0)
		binary.LittleEndian.PutUint32(tmp[:], uint32(ov.val))
		dst = append(dst, tmp[:]...)
	}
	return dst
}

// wrap returns the machine's reusable wrapper context bound to the
// backend context c. A single scratch wrapper per machine keeps the
// Enabled/Apply hot path free of per-call allocations.
func (m *Machine) wrap(c Ctx) *machineCtx {
	if m.mc == nil {
		m.mc = &machineCtx{}
	}
	m.mc.m, m.mc.inner = m, c
	return m.mc
}

// machineCtx scopes variable access to the machine while delegating
// globals ("g." prefix), sends and traces to the backend context.
type machineCtx struct {
	m     *Machine
	inner Ctx
}

func isGlobal(name string) bool {
	return len(name) > 2 && name[0] == 'g' && name[1] == '.'
}

func (c *machineCtx) Get(name string) int {
	if isGlobal(name) {
		return c.inner.Get(name)
	}
	return c.m.Var(name)
}

func (c *machineCtx) Set(name string, v int) {
	if isGlobal(name) {
		c.inner.Set(name, v)
		return
	}
	c.m.SetVar(name, v)
}

// GetI and SetI hit the variable slab directly — the O(1) access path
// for guards and actions that pre-resolve their slots via Spec.Slot.
func (c *machineCtx) GetI(slot int32) int32 { return c.m.vars[slot] }

func (c *machineCtx) SetI(slot int32, v int32) { c.m.setSlot(slot, v) }

func (c *machineCtx) Send(to string, msg types.Message) { c.inner.Send(to, msg) }
func (c *machineCtx) Output(msg types.Message)          { c.inner.Output(msg) }
func (c *machineCtx) Trace(format string, args ...any)  { c.inner.Trace(format, args...) }
