// Package model defines the composable system model explored by the
// CNetVerifier screening phase (internal/check): a World of protocol
// processes (fsm.Machine instances) connected by message channels, plus
// shared global context variables (e.g. whether a PDP context is
// active).
//
// A World supports deterministic enumeration of its enabled steps
// (message deliveries — including lossy drops and out-of-order
// deliveries — and environment events), cloning, and canonical
// encoding/hashing so the checker can deduplicate visited states.
//
// State is stored flat: the machines of a world live in one contiguous
// slab, globals in an []int32 slab behind a sorted copy-on-write
// layout, and cloning reuses destination storage via CloneInto — the
// checker's steady-state exploration path allocates nothing.
package model

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// Channel is a process inbox. The zero capacity means unbounded (the
// checker bounds exploration by depth instead).
type Channel struct {
	// Name equals the owning process name.
	Name string
	// Cap bounds the queue length; messages sent to a full channel are
	// dropped (models signaling overload). 0 = unbounded.
	Cap int
	// Lossy lets the checker explore dropping a deliverable message,
	// modeling unreliable RRC transfer (§5.2: "RRC does not always
	// ensure reliable delivery").
	Lossy bool
	// Reorder lets the checker deliver any queued message rather than
	// only the head, modeling signals relayed through different base
	// stations arriving out of sequence (§5.2 duplicate-signal case).
	Reorder bool
	// queue holds pending messages in arrival order. Every world owns
	// its queue backing (clones copy), so steps edit it in place — only
	// through the methods below, which stamp each change the way
	// fsm.Machine does: equal stamps, equal content.
	queue       []types.Message
	stamp, tick uint64
}

// Messages returns a copy of the pending messages in arrival order.
func (c *Channel) Messages() []types.Message {
	return append([]types.Message(nil), c.queue...)
}

// Push appends a message as is (World.Inject also fills in To).
func (c *Channel) Push(m types.Message) {
	c.touch()
	c.queue = append(c.queue, m)
}

func (c *Channel) touch() {
	c.tick++
	c.stamp = c.tick
}

// remove deletes the message at pos in place.
func (c *Channel) remove(pos int) {
	c.touch()
	c.queue = append(c.queue[:pos], c.queue[pos+1:]...)
}

// set replaces the content with a copy of q, reusing the backing.
func (c *Channel) set(q []types.Message) {
	c.touch()
	c.queue = append(c.queue[:0], q...)
}

// Proc is a protocol process: a named machine with an inbox.
type Proc struct {
	Name string
	M    *fsm.Machine
	// OutputTo lists co-located processes that receive this process's
	// Output() messages (the cross-layer interface, e.g. UE-EMM →
	// UE-RRC on the same phone).
	OutputTo []string
}

// Stats counts lossage observed while applying steps: messages sent to
// a process absent from the (scoped) world and messages dropped at a
// full inbox. The counters are monotone work tallies — they are
// excluded from Encode/Hash and are NOT rewound by Restore, mirroring
// how the checker counts transitions.
type Stats struct {
	// Misrouted counts sends to an unknown destination process.
	Misrouted int
	// Dropped counts sends discarded at a full inbox.
	Dropped int
}

// glayout is the sorted, copy-on-write layout of a world's globals:
// names in sorted order, each resolved to an index into the gvals
// slab. Worlds sharing an ancestry share the layout pointer until one
// of them grows a new global.
type glayout struct {
	names []string
	idx   map[string]int32

	// grown memoizes with(): under the apply/undo discipline the
	// checker repeatedly re-applies a step that introduces the same
	// global (Restore rewinds the layout pointer), so growth must not
	// rebuild the layout each time. Guarded by mu because worlds on
	// different workers share layout pointers.
	mu    sync.Mutex
	grown map[string]*glayout
}

func (g *glayout) with(name string) (*glayout, int) {
	g.mu.Lock()
	if n, ok := g.grown[name]; ok {
		g.mu.Unlock()
		return n, int(n.idx[name])
	}
	g.mu.Unlock()
	pos := sort.SearchStrings(g.names, name)
	n := &glayout{
		names: make([]string, 0, len(g.names)+1),
		idx:   make(map[string]int32, len(g.names)+1),
	}
	n.names = append(n.names, g.names[:pos]...)
	n.names = append(n.names, fsm.SymString(name))
	n.names = append(n.names, g.names[pos:]...)
	for i, k := range n.names {
		n.idx[k] = int32(i)
	}
	g.mu.Lock()
	if exist, ok := g.grown[name]; ok {
		n = exist
	} else {
		if g.grown == nil {
			g.grown = make(map[string]*glayout)
		}
		g.grown[name] = n
	}
	g.mu.Unlock()
	return n, int(n.idx[name])
}

// World is a global system state.
type World struct {
	Procs []*Proc
	Chans []*Channel
	// Stats accumulates misroute/drop counts across applied steps.
	Stats Stats

	// procs/chans/machines are the backing slabs for Procs/Chans; each
	// Proc's M points into the machines slab so a world's entire
	// machine state is one contiguous copy.
	procs    []Proc
	chans    []Channel
	machines []fsm.Machine

	procIdx map[string]int
	chanIdx map[string]int

	// glay/gvals hold the globals: a shared sorted layout plus this
	// world's value slab.
	glay  *glayout
	gvals []int32

	// sym/symRes are the replica-symmetry descriptor and its resolved
	// process indices (see symmetry.go); both are immutable after
	// SetSymmetry and shared by clones.
	sym    *Symmetry
	symRes *symResolution

	// timing is the immutable timer-definition table (timing.go),
	// shared by clones; now is the monotone virtual clock and timers
	// the armed-timer set, both part of the logical state
	// (Save/Restore and CloneInto carry them, Encode appends their
	// zone abstraction).
	timing *timingConfig
	now    int64
	timers []armedTimer

	// scratch, enbuf and symScratch are reusable per-world working
	// storage for Steps/Apply/EncodeCanonical (never shared between
	// worlds; CloneInto skips them).
	scratch    *ctx
	enbuf      []int
	symScratch *symScratch
	// keys memoizes the interned pieces of the components' recent
	// contents for AppendKey (key.go); never shared, but CloneInto hands
	// the copy the pieces of the content it copied.
	keys keyCache
}

// Config declares the construction of a World.
type Config struct {
	Procs   []ProcConfig
	Globals map[string]int
}

// ProcConfig declares one process and its inbox properties.
type ProcConfig struct {
	Name     string
	Spec     *fsm.Spec
	Cap      int
	Lossy    bool
	Reorder  bool
	OutputTo []string
}

// New builds a world: one inbox channel per process, all queues empty,
// machines in their initial states.
func New(cfg Config) (*World, error) {
	n := len(cfg.Procs)
	w := &World{
		Procs:   make([]*Proc, 0, n),
		Chans:   make([]*Channel, 0, n),
		procIdx: make(map[string]int, n),
		chanIdx: make(map[string]int, n),
		// The slabs are sized exactly: growing them would move the
		// machines out from under the Proc.M pointers.
		procs:    make([]Proc, n),
		chans:    make([]Channel, n),
		machines: make([]fsm.Machine, n),
	}
	w.glay = &glayout{idx: make(map[string]int32, len(cfg.Globals))}
	for k := range cfg.Globals {
		w.glay.names = append(w.glay.names, fsm.SymString(k))
	}
	sort.Strings(w.glay.names)
	w.gvals = make([]int32, len(w.glay.names))
	for i, k := range w.glay.names {
		w.glay.idx[k] = int32(i)
		w.gvals[i] = int32(cfg.Globals[k])
	}
	for i, pc := range cfg.Procs {
		if pc.Name == "" {
			return nil, fmt.Errorf("model: process with empty name")
		}
		if _, dup := w.procIdx[pc.Name]; dup {
			return nil, fmt.Errorf("model: duplicate process %q", pc.Name)
		}
		if err := pc.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("model: process %q: %w", pc.Name, err)
		}
		w.machines[i] = *fsm.New(pc.Spec)
		w.procs[i] = Proc{Name: pc.Name, M: &w.machines[i], OutputTo: append([]string(nil), pc.OutputTo...)}
		w.procIdx[pc.Name] = i
		w.Procs = append(w.Procs, &w.procs[i])
		w.chans[i] = Channel{Name: pc.Name, Cap: pc.Cap, Lossy: pc.Lossy, Reorder: pc.Reorder}
		w.chanIdx[pc.Name] = i
		w.Chans = append(w.Chans, &w.chans[i])
	}
	for _, p := range w.Procs {
		for _, dst := range p.OutputTo {
			if _, ok := w.procIdx[dst]; !ok {
				return nil, fmt.Errorf("model: process %q outputs to unknown process %q", p.Name, dst)
			}
		}
	}
	return w, nil
}

// Proc returns the named process, or nil.
func (w *World) Proc(name string) *Proc {
	if i, ok := w.procIdx[name]; ok {
		return w.Procs[i]
	}
	return nil
}

// ProcIndex returns the position of the named process in Procs. The
// checker uses it to tally per-transition counters by index instead of
// building string keys on the hot path.
func (w *World) ProcIndex(name string) (int, bool) {
	i, ok := w.procIdx[name]
	return i, ok
}

// Chan returns the named inbox, or nil.
func (w *World) Chan(name string) *Channel {
	if i, ok := w.chanIdx[name]; ok {
		return w.Chans[i]
	}
	return nil
}

// Global reads a shared variable (names conventionally carry the "g."
// prefix used by fsm guards/actions).
func (w *World) Global(name string) int {
	if w.glay == nil {
		return 0
	}
	if i, ok := w.glay.idx[name]; ok {
		return int(w.gvals[i])
	}
	return 0
}

// SetGlobal writes a shared variable. New names grow the layout
// copy-on-write: clones sharing the old layout are unaffected, and the
// layout stays sorted so the canonical encoding remains a pure
// function of the logical state.
func (w *World) SetGlobal(name string, v int) {
	if w.glay == nil {
		w.glay = &glayout{idx: map[string]int32{}}
	}
	if i, ok := w.glay.idx[name]; ok {
		w.gvals[i] = int32(v)
		return
	}
	lay, pos := w.glay.with(name)
	w.glay = lay
	w.gvals = append(w.gvals, 0)
	copy(w.gvals[pos+1:], w.gvals[pos:])
	w.gvals[pos] = int32(v)
}

// HasGlobal reports whether the named global has been initialized.
func (w *World) HasGlobal(name string) bool {
	if w.glay == nil {
		return false
	}
	_, ok := w.glay.idx[name]
	return ok
}

// GlobalsMap materializes the globals as a fresh name→value map (for
// reporting and replay seeding; not a hot path).
func (w *World) GlobalsMap() map[string]int {
	out := make(map[string]int)
	if w.glay == nil {
		return out
	}
	for i, k := range w.glay.names {
		out[k] = int(w.gvals[i])
	}
	return out
}

// Clone deep-copies the world. Specs, name-index tables and the global
// layout are shared (immutable or copy-on-write).
func (w *World) Clone() *World {
	n := &World{}
	w.CloneInto(n)
	return n
}

// CloneInto makes dst a deep copy of w, reusing dst's slabs and queue
// capacity when present — the zero-allocation clone behind the
// checker's world pool. dst's scratch storage is kept (never shared).
func (w *World) CloneInto(dst *World) {
	// Iterate the public pointer slices, not the backing slabs, so
	// worlds assembled by hand (tests build World{Procs: ...} directly)
	// clone correctly; the copy always lands in dst's slabs.
	np, nc := len(w.Procs), len(w.Chans)
	if cap(dst.procs) < np || cap(dst.chans) < nc {
		// New machines start their stamps over, so what the canonical
		// encoder and the key cache hold against the old ones goes with
		// them.
		dst.symScratch, dst.keys = nil, keyCache{}
		dst.procs = make([]Proc, np)
		dst.chans = make([]Channel, nc)
		dst.machines = make([]fsm.Machine, np)
		dst.Procs = make([]*Proc, np)
		dst.Chans = make([]*Channel, nc)
	}
	dst.procs = dst.procs[:np]
	dst.chans = dst.chans[:nc]
	dst.machines = dst.machines[:np]
	dst.Procs = dst.Procs[:np]
	dst.Chans = dst.Chans[:nc]
	for i, src := range w.Procs {
		src.M.CloneInto(&dst.machines[i])
		dst.procs[i].Name = src.Name
		dst.procs[i].M = &dst.machines[i]
		dst.procs[i].OutputTo = src.OutputTo
		dst.Procs[i] = &dst.procs[i]
	}
	for i, sc := range w.Chans {
		dc := &dst.chans[i]
		dc.Name, dc.Cap, dc.Lossy, dc.Reorder = sc.Name, sc.Cap, sc.Lossy, sc.Reorder
		dc.set(sc.queue)
		dst.Chans[i] = &dst.chans[i]
	}
	dst.Stats = w.Stats
	dst.procIdx, dst.chanIdx = w.procIdx, w.chanIdx
	dst.glay = w.glay
	dst.gvals = append(dst.gvals[:0], w.gvals...)
	dst.sym, dst.symRes = w.sym, w.symRes
	dst.timing, dst.now = w.timing, w.now
	dst.timers = append(dst.timers[:0], w.timers...)
	w.handOverKeys(dst)
}

// Encode appends a canonical binary encoding of the full global state.
// The layout is fixed and positional: each machine's memoized encoding
// in process order, each queue as a u16 length plus fixed-width
// message records, then the globals as a u16 count plus sorted
// name/value pairs. No map iteration, no sorting, no string keys on
// the hot path.
//
// Each of those sections is one component of the world's collapsed key
// (key.go), written by the same piece function here and there: the
// encoding is the concatenation of the pieces the key interns.
func (w *World) Encode(buf []byte) []byte {
	for _, p := range w.Procs {
		buf = p.M.Encode(buf)
	}
	for _, c := range w.Chans {
		buf = appendQueue(buf, c)
	}
	buf = w.appendGlobals(buf)
	// Timed worlds append the zone-abstracted armed-timer section;
	// untimed encodings are byte-for-byte what they always were.
	if w.timing != nil {
		buf = w.encodeTimers(buf)
	}
	return buf
}

// appendMsg appends the fixed-width part of a message record — kind,
// cause, sequence number, system, domain, protocol — shared by the plain
// and the replica-relative queue pieces.
func appendMsg(buf []byte, m *types.Message) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(m.Kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(m.Cause))
	buf = binary.LittleEndian.AppendUint32(buf, m.Seq)
	return append(buf, byte(m.System), byte(m.Domain), byte(m.Proto))
}

// appendQueue appends one inbox's piece: a u16 length, then per message
// the fixed-width record and the NUL-terminated sender name.
func appendQueue(buf []byte, c *Channel) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.queue)))
	for i := range c.queue {
		buf = appendMsg(buf, &c.queue[i])
		buf = append(buf, c.queue[i].From...)
		buf = append(buf, 0)
	}
	return buf
}

// appendGlobals appends the globals piece: a u16 count, then the
// name/value pairs in layout (sorted) order.
func (w *World) appendGlobals(buf []byte) []byte {
	if w.glay == nil {
		return binary.LittleEndian.AppendUint16(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.glay.names)))
	for i, name := range w.glay.names {
		buf = appendGlobal(buf, name, w.gvals[i])
	}
	return buf
}

// appendGlobal appends one NUL-terminated global name and its u32 value.
func appendGlobal(buf []byte, name string, v int32) []byte {
	buf = append(buf, name...)
	buf = append(buf, 0)
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

// Hash returns the hash64 digest of the positional encoding (Encode).
func (w *World) Hash() uint64 {
	h, _ := w.AppendHash(nil)
	return h
}

// AppendHash encodes the world into buf[:0] and returns the hash64
// digest together with the (re)used buffer. Callers on hot paths keep
// the returned buffer as scratch for the next call, eliminating the
// per-state encoding allocation.
func (w *World) AppendHash(buf []byte) (uint64, []byte) {
	buf = w.Encode(buf[:0])
	return hash64(buf), buf
}

// ctx implements fsm.Ctx for a process executing inside the world.
type ctx struct {
	w         *World
	p         *Proc
	notes     []string
	misrouted int
	dropped   int
}

// ctxFor returns the world's reusable scratch context bound to p,
// reset for a fresh step.
func (w *World) ctxFor(p *Proc) *ctx {
	if w.scratch == nil {
		w.scratch = &ctx{}
	}
	c := w.scratch
	c.w, c.p = w, p
	c.notes = nil
	c.misrouted, c.dropped = 0, 0
	return c
}

func (c *ctx) Get(name string) int { return c.w.Global(name) }

func (c *ctx) Set(name string, v int) { c.w.SetGlobal(name, v) }

// GetI/SetI are only resolved by the machine wrapper; the world
// context never receives indexed calls.
func (c *ctx) GetI(int32) int32  { return 0 }
func (c *ctx) SetI(int32, int32) {}

func (c *ctx) Send(to string, msg types.Message) {
	msg.From = c.p.Name
	msg.To = to
	ch := c.w.Chan(to)
	if ch == nil {
		c.misrouted++
		c.w.Stats.Misrouted++
		c.notes = append(c.notes, fmt.Sprintf("send to unknown %q dropped", to))
		return
	}
	if ch.Cap > 0 && len(ch.queue) >= ch.Cap {
		c.dropped++
		c.w.Stats.Dropped++
		c.notes = append(c.notes, fmt.Sprintf("inbox %q full, %s dropped", to, msg))
		return
	}
	ch.Push(msg)
}

func (c *ctx) Output(msg types.Message) {
	for _, dst := range c.p.OutputTo {
		c.Send(dst, msg)
	}
}

func (c *ctx) Trace(format string, args ...any) {
	// Most protocol traces are constant strings; skip Sprintf (and its
	// per-call allocation) when there is nothing to format. Constant
	// formats containing %-verbs with no args would previously have
	// rendered as %!v(MISSING)-style noise, so passing them through
	// verbatim only changes output that was already malformed.
	if len(args) == 0 {
		c.notes = append(c.notes, format)
		return
	}
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// takeNotes hands ownership of the accumulated notes to the caller.
func (c *ctx) takeNotes() []string {
	n := c.notes
	c.notes = nil
	return n
}
