package model

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// This file collapses a world state into a short key for the checker's
// visited table — Spin's COLLAPSE mode. A state is built from a few
// components: each machine, each inbox, the globals and the armed
// timers (under symmetry: each replica, then the rest). Far fewer
// distinct components occur in a run than distinct states, so an
// Interner stores each component's bytes once and numbers it, and a
// state becomes the vector of its components' numbers.
//
//   - The pieces are the sections Encode (and EncodeCanonical)
//     concatenate, written by the same piece functions, so two worlds
//     have equal keys under one Interner exactly when their encodings
//     are equal.
//   - A piece is identified by its kind (which piece function wrote it)
//     and its bytes: the same bytes can be two kinds — an empty inbox
//     and an empty globals section both encode as 00 00.
//   - A piece of a plain key keeps the value it was interned from (a
//     machine's state and variables, an inbox's messages, the globals,
//     the clock and armed timers), so LoadKey turns a plain key back
//     into a world.
//   - The fingerprint is a hash over the pieces' content hashes in key
//     order, so it depends on the state alone — not on the order in
//     which a run happened to intern its pieces, nor on its workers.
//   - Each world remembers, per component, the pieces of its last two
//     contents by change stamp (keyCache): a step re-encodes and
//     re-interns only what it touched, and the apply/restore ping-pong
//     of an expansion finds the parent's pieces still there. CloneInto
//     hands the source's pieces to the copy's fresh stamps, and LoadKey
//     files each piece it loads under the stamp it gives the component.

// piece is one interned component: its dense id and the hash64 of its
// bytes.
type piece struct {
	id   uint32
	hash uint64
}

// pieceKind names the piece function that wrote a piece's bytes.
type pieceKind uint8

const (
	kindMachine     pieceKind = iota // Machine.Encode
	kindQueue                        // appendQueue
	kindGlobals                      // appendGlobals
	kindTimers                       // encodeTimers
	kindReplica                      // encodeReplica
	kindRestQueue                    // encodeQueueLocal(nil)
	kindRestGlobals                  // appendRestGlobals
	kindRestTimers                   // appendRestTimers
	numKinds
)

// pieceVal is what a piece was interned from: for the kinds of a plain
// key, the content of the component whose bytes the piece is. Writing
// it back into a component rebuilds exactly those bytes, since the
// bytes came from it through the piece function.
type pieceVal struct {
	hash   uint64
	mach   fsm.MachineUndo // kindMachine
	msgs   []types.Message // kindQueue
	glay   *glayout        // kindGlobals: the layout and the values
	gvals  []int32
	now    int64        // kindTimers: the clock and the armed timers,
	timers []armedTimer // whose windows the piece holds relative to it
}

// Interner numbers distinct state components for one checking run. It
// is safe for concurrent use, and its read path takes no lock and
// writes nothing shared: lookups read a snapshot map per kind through
// one atomic pointer. A miss falls back to mutex-guarded overflow maps,
// and the overflow is folded into a fresh snapshot once the misses
// since the last fold would pay for copying it. The values of the
// pieces are a slice by id, published through an atomic pointer before
// the id is.
type Interner struct {
	snap atomic.Pointer[[numKinds]map[string]piece]
	vals atomic.Pointer[[]pieceVal]

	mu     sync.Mutex
	over   [numKinds]map[string]piece // interned since the snapshot was taken
	n      int                        // pieces interned
	snapN  int                        // pieces in the snapshot
	misses int                        // lookups served under mu since the last fold
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	var snap [numKinds]map[string]piece
	for k := range snap {
		snap[k], in.over[k] = map[string]piece{}, map[string]piece{}
	}
	in.snap.Store(&snap)
	in.vals.Store(&[]pieceVal{})
	return in
}

// Len returns the number of distinct pieces interned.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// intern returns the piece of kind k for the bytes b, numbering it on
// first sight with the value of component i of w (see pieceValue). b is
// not retained.
func (in *Interner) intern(k pieceKind, b []byte, w *World, i int) piece {
	if p, ok := in.snap.Load()[k][string(b)]; ok {
		return p
	}
	return in.internLocked(k, b, w, i)
}

func (in *Interner) internLocked(k pieceKind, b []byte, w *World, i int) piece {
	in.mu.Lock()
	defer in.mu.Unlock()
	snap := in.snap.Load()
	p, ok := snap[k][string(b)] // a fold may have moved it since the first look
	if !ok {
		if p, ok = in.over[k][string(b)]; !ok {
			p = piece{id: uint32(in.n), hash: hash64(b)}
			in.n++
			vals := append(*in.vals.Load(), pieceVal{hash: p.hash})
			w.pieceValue(k, i, &vals[p.id])
			in.vals.Store(&vals) // before the id leaves the lock
			in.over[k][string(b)] = p
		}
	}
	if in.misses++; in.misses > in.snapN/2+32 {
		var next [numKinds]map[string]piece
		for k := range next {
			next[k] = make(map[string]piece, len(snap[k])+len(in.over[k]))
			for b, p := range snap[k] {
				next[k][b] = p
			}
			for b, p := range in.over[k] {
				next[k][b] = p
			}
			clear(in.over[k])
		}
		in.snap.Store(&next)
		in.snapN, in.misses = in.n, 0
	}
	return p
}

// pieceValue records in v the content of component i that a piece of
// kind k is being interned from. The canonical kinds keep no value:
// only plain keys are loaded.
func (w *World) pieceValue(k pieceKind, i int, v *pieceVal) {
	switch k {
	case kindMachine:
		w.Procs[i].M.Save(&v.mach)
	case kindQueue:
		v.msgs = slices.Clone(w.Chans[i].queue)
	case kindGlobals:
		v.glay, v.gvals = w.glay, slices.Clone(w.gvals)
	case kindTimers:
		v.now, v.timers = w.now, slices.Clone(w.timers)
	}
}

// keyCache is a world's memo from component content to interned piece,
// valid for one Interner (nil: the world was never keyed). Like
// symScratch it is the world's own, never shared: CloneInto gives the
// destination copies of entries, not the cache.
type keyCache struct {
	in     *Interner
	mach   []stampCache // by process index, keyed by machine stamp
	queue  []stampCache // by channel index: appendQueue pieces
	lqueue []stampCache // by channel index: encodeQueueLocal(nil) pieces
	glob   globCache    // appendGlobals pieces
	rglob  globCache    // appendRestGlobals pieces
	// res is the symmetry resolution reps and grp were sized for.
	res  *symResolution
	reps []repKeys // by replica, groups flattened in res order
	grp  []piece   // one group's replica pieces, being sorted
}

// stampCache holds the pieces of a component's last two contents, by
// stamp+1 (0 marks an empty entry), the more recently used first.
type stampCache struct {
	stamp [2]uint64
	p     [2]piece
}

// get returns the piece filed under the stamp, moving it to the front.
func (c *stampCache) get(stamp uint64) (piece, bool) {
	switch stamp + 1 {
	case c.stamp[0]:
		return c.p[0], true
	case c.stamp[1]:
		c.stamp[0], c.stamp[1] = c.stamp[1], c.stamp[0]
		c.p[0], c.p[1] = c.p[1], c.p[0]
		return c.p[0], true
	}
	return piece{}, false
}

// peek is get without the move: the source side of a hand-over only
// reads.
func (c *stampCache) peek(stamp uint64) (piece, bool) {
	switch stamp + 1 {
	case c.stamp[0]:
		return c.p[0], true
	case c.stamp[1]:
		return c.p[1], true
	}
	return piece{}, false
}

// put files p under the stamp in front, dropping the older entry.
func (c *stampCache) put(stamp uint64, p piece) {
	c.stamp[1], c.p[1] = c.stamp[0], c.p[0]
	c.stamp[0], c.p[0] = stamp+1, p
}

// globCache holds the globals pieces of the last two (layout, values)
// pairs, the more recently used first. Layouts are immutable, so the
// pointer names the names.
type globCache struct {
	lay  [2]*glayout
	vals [2][]int32
	ok   [2]bool
	p    [2]piece
}

func (c *globCache) find(lay *glayout, vals []int32) int {
	for i := range c.ok {
		if c.ok[i] && c.lay[i] == lay && slices.Equal(c.vals[i], vals) {
			return i
		}
	}
	return -1
}

func (c *globCache) get(lay *glayout, vals []int32) (piece, bool) {
	switch c.find(lay, vals) {
	case 0:
		return c.p[0], true
	case 1:
		c.swap()
		return c.p[0], true
	}
	return piece{}, false
}

func (c *globCache) swap() {
	c.lay[0], c.lay[1] = c.lay[1], c.lay[0]
	c.vals[0], c.vals[1] = c.vals[1], c.vals[0]
	c.ok[0], c.ok[1] = c.ok[1], c.ok[0]
	c.p[0], c.p[1] = c.p[1], c.p[0]
}

// handOver copies c's piece for the world's globals, if it has one,
// into the copy's cache to.
func (c *globCache) handOver(to *globCache, w *World) {
	if i := c.find(w.glay, w.gvals); i >= 0 && to.find(w.glay, w.gvals) < 0 {
		to.put(w.glay, w.gvals, c.p[i])
	}
}

func (c *globCache) put(lay *glayout, vals []int32, p piece) {
	c.swap()
	if cap(c.vals[0]) < len(vals) {
		c.vals[0] = make([]int32, 0, 2*len(vals)) // room for the globals a run grows
	}
	c.lay[0], c.vals[0], c.ok[0], c.p[0] = lay, append(c.vals[0][:0], vals...), true, p
}

// repKeys holds the pieces of a replica's last two contents, the more
// recently used first. Only untimed worlds use it: a replica piece of a
// timed world carries windows relative to a clock most steps move.
type repKeys struct {
	at [2]repState
	ok [2]bool
	p  [2]piece
}

func (c *repKeys) get(w *World, rep *symReplicaRes, gnames []string, gvals []int32) (piece, bool) {
	for i := range c.ok {
		if c.ok[i] && c.at[i].matches(w, rep, gnames, gvals) {
			if i == 1 {
				c.swap()
			}
			return c.p[0], true
		}
	}
	return piece{}, false
}

func (c *repKeys) swap() {
	c.at[0], c.at[1] = c.at[1], c.at[0]
	c.ok[0], c.ok[1] = c.ok[1], c.ok[0]
	c.p[0], c.p[1] = c.p[1], c.p[0]
}

func (c *repKeys) put(w *World, rep *symReplicaRes, gnames []string, gvals []int32, p piece) {
	c.swap()
	c.at[0].record(w, rep, gnames, gvals)
	c.ok[0], c.p[0] = true, p
}

// keysFor returns the world's cache for the interner, starting it
// afresh when the world was never keyed, was last keyed under another
// interner, or changed shape.
func (w *World) keysFor(in *Interner) *keyCache {
	kc := &w.keys
	if np, nc := len(w.Procs), len(w.Chans); kc.in != in || len(kc.mach) != np || len(kc.queue) != nc {
		slab := make([]stampCache, np+nc)
		*kc = keyCache{in: in, mach: slab[:np:np], queue: slab[np:]}
	}
	return kc
}

// canonFor readies kc's canonical part for the world's symmetry
// resolution; plain keying never pays for it.
func (kc *keyCache) canonFor(w *World) {
	if kc.res != w.symRes {
		kc.res = w.symRes
		kc.lqueue = make([]stampCache, len(w.Chans))
		kc.reps = make([]repKeys, w.symRes.replicas())
		kc.rglob = globCache{}
	}
}

// keyBuilder accumulates a key: the pieces' ids as uvarints and the
// running fingerprint over their hashes (hash64's multiply-fold, one
// round per piece). Pieces are encoded, when they must be, at the
// tail of the key buffer and dropped again once interned.
type keyBuilder struct {
	in  *Interner
	buf []byte
	h   uint64
	n   uint64
}

func newKeyBuilder(in *Interner, buf []byte) keyBuilder {
	return keyBuilder{in: in, buf: buf[:0], h: hashK0}
}

func (b *keyBuilder) add(p piece) {
	b.buf = binary.AppendUvarint(b.buf, uint64(p.id))
	b.h = fold(b.h^p.hash, hashK1)
	b.n++
}

// internTail interns enc[len(b.buf):], a piece of kind k that component
// i of w encoded after the key so far, and drops it, keeping any growth
// of the buffer.
func (b *keyBuilder) internTail(k pieceKind, enc []byte, w *World, i int) piece {
	p := b.in.intern(k, enc[len(b.buf):], w, i)
	b.buf = enc[:len(b.buf)]
	return p
}

func (b *keyBuilder) sum() (uint64, []byte) {
	return fold(fold(b.h, hashK2)^b.n, hashK1), b.buf
}

func (b *keyBuilder) machine(w *World, kc *keyCache, i int) piece {
	m := w.Procs[i].M
	if p, ok := kc.mach[i].get(m.Stamp()); ok {
		return p
	}
	p := b.internTail(kindMachine, m.Encode(b.buf), w, i)
	kc.mach[i].put(m.Stamp(), p)
	return p
}

func (b *keyBuilder) queue(w *World, kc *keyCache, i int) piece {
	c := w.Chans[i]
	if p, ok := kc.queue[i].get(c.stamp); ok {
		return p
	}
	p := b.internTail(kindQueue, appendQueue(b.buf, c), w, i)
	kc.queue[i].put(c.stamp, p)
	return p
}

func (b *keyBuilder) restQueue(w *World, kc *keyCache, i int) piece {
	c := w.Chans[i]
	if p, ok := kc.lqueue[i].get(c.stamp); ok {
		return p
	}
	p := b.internTail(kindRestQueue, w.encodeQueueLocal(b.buf, c, nil), w, i)
	kc.lqueue[i].put(c.stamp, p)
	return p
}

// AppendKey collapses the world into its key under the interner: one
// piece id per machine, per inbox, for the globals and, on a timed
// world, for the armed timers — the sections of Encode, in its order.
// It writes the key into buf[:0] and returns the content fingerprint
// with the (re)used buffer. Under one interner two worlds have equal
// keys exactly when their encodings are equal, and equal encodings
// have equal fingerprints under any interner. Steady state allocates
// nothing.
func (w *World) AppendKey(in *Interner, buf []byte) (uint64, []byte) {
	kc := w.keysFor(in)
	b := newKeyBuilder(in, buf)
	for i := range w.Procs {
		b.add(b.machine(w, kc, i))
	}
	for i := range w.Chans {
		b.add(b.queue(w, kc, i))
	}
	p, ok := kc.glob.get(w.glay, w.gvals)
	if !ok {
		p = b.internTail(kindGlobals, w.appendGlobals(b.buf), w, 0)
		kc.glob.put(w.glay, w.gvals, p)
	}
	b.add(p)
	if w.timing != nil {
		b.add(b.internTail(kindTimers, w.encodeTimers(b.buf), w, 0))
	}
	return b.sum()
}

// LoadKey sets w to the state the plain key names: key must come from
// AppendKey under in, on a world of w's shape (the same processes and
// timer definitions — a clone of the one the run started from). Each
// component gets the value its piece was interned from, taking a fresh
// stamp under which the piece is filed in w's key cache, so keying w
// and its successors re-interns only what a step touches; a machine or
// inbox whose current piece is already the key's is left alone.
//
// What the key does not carry is not restored:
//   - An inbox's messages are addressed to the inbox (To is its name),
//     as Send and Inject address them.
//   - On a timed world the clock and the absolute windows are those of
//     the first world whose armed timers were interned as this piece:
//     the loaded world is a ShiftTime of the one keyed (up to how
//     overdue an already-fireable timer is, which encodeTimers clamps
//     because nothing observes it), and arming instants are not kept.
//   - Stats, the lossage tallies, are left as they are.
func (w *World) LoadKey(in *Interner, key []byte) {
	kc := w.keysFor(in)
	vals := *in.vals.Load()
	var id uint32
	for i, p := range w.Procs {
		id, key = nextID(key)
		if cur, ok := kc.mach[i].peek(p.M.Stamp()); ok && cur.id == id {
			continue
		}
		p.M.Load(&vals[id].mach)
		kc.mach[i].put(p.M.Stamp(), piece{id, vals[id].hash})
	}
	for i, c := range w.Chans {
		id, key = nextID(key)
		if cur, ok := kc.queue[i].peek(c.stamp); ok && cur.id == id {
			continue
		}
		c.set(vals[id].msgs)
		for j := range c.queue {
			c.queue[j].To = c.Name
		}
		kc.queue[i].put(c.stamp, piece{id, vals[id].hash})
	}
	id, key = nextID(key)
	v := &vals[id]
	w.glay, w.gvals = v.glay, append(w.gvals[:0], v.gvals...)
	if kc.glob.find(w.glay, w.gvals) < 0 {
		kc.glob.put(w.glay, w.gvals, piece{id, v.hash})
	}
	if w.timing != nil {
		id, _ = nextID(key)
		v := &vals[id]
		w.now, w.timers = v.now, append(w.timers[:0], v.timers...)
	}
}

// nextID reads the piece id at the front of a key.
func nextID(key []byte) (uint32, []byte) {
	id, n := binary.Uvarint(key)
	return uint32(id), key[n:]
}

// AppendCanonicalKey is AppendKey over the sections of EncodeCanonical:
// per symmetry group one piece per replica sub-encoding, sorted by
// (hash, id) so every permutation of the replicas has one key, then the
// pieces of the non-replica machines, queues, globals and timers.
// Without a symmetry descriptor it IS AppendKey.
func (w *World) AppendCanonicalKey(in *Interner, buf []byte) (uint64, []byte) {
	if w.sym == nil || w.symRes == nil {
		return w.AppendKey(in, buf)
	}
	kc := w.keysFor(in)
	kc.canonFor(w)
	sc, lay := w.scratchFor()
	b := newKeyBuilder(in, buf)
	reps, rks, spans := sc.reps, kc.reps, lay.spans
	for _, grp := range w.symRes.groups {
		ps := kc.grp[:0]
		for ri := range grp {
			sp := spans[ri]
			gnames, gvals := lay.names[sp.lo:sp.hi], w.gvals[sp.lo:sp.hi]
			p, ok := piece{}, false
			if w.timing == nil {
				p, ok = rks[ri].get(w, &grp[ri], gnames, gvals)
			}
			if !ok {
				w.encodeReplica(&grp[ri], &reps[ri], gnames, gvals)
				p = in.intern(kindReplica, reps[ri].sub, w, 0)
				if w.timing == nil {
					rks[ri].put(w, &grp[ri], gnames, gvals, p)
				}
			}
			// Insertion sort by (hash, id): groups are one entry per UE.
			j := len(ps)
			ps = append(ps, p)
			for ; j > 0 && pieceLess(p, ps[j-1]); j-- {
				ps[j] = ps[j-1]
			}
			ps[j] = p
		}
		for _, p := range ps {
			b.add(p)
		}
		kc.grp = ps
		reps, rks, spans = reps[len(grp):], rks[len(grp):], spans[len(grp):]
	}
	for _, pi := range w.symRes.rest {
		b.add(b.machine(w, kc, pi))
	}
	for _, pi := range w.symRes.rest {
		b.add(b.restQueue(w, kc, pi))
	}
	p, ok := kc.rglob.get(w.glay, w.gvals)
	if !ok {
		p = b.internTail(kindRestGlobals, w.appendRestGlobals(b.buf, lay), w, 0)
		kc.rglob.put(w.glay, w.gvals, p)
	}
	b.add(p)
	if w.timing != nil {
		b.add(b.internTail(kindRestTimers, w.appendRestTimers(b.buf), w, 0))
	}
	return b.sum()
}

// pieceLess orders a group's replica pieces: by content hash, which
// keeps the fingerprint independent of interning order, then by id,
// which keeps the key exact should two contents share a hash.
func pieceLess(a, b piece) bool {
	return a.hash < b.hash || a.hash == b.hash && a.id < b.id
}

// handOverKeys gives dst, which CloneInto has just made a copy of w,
// the plain pieces w's cache holds for w's current content, filed under
// dst's fresh stamps — without it every copy would re-encode and
// re-intern each of its components the first time it is keyed. (The
// canonical pieces are not handed over: no engine keys a copy
// canonically often enough to pay for it.)
func (w *World) handOverKeys(dst *World) {
	src := &w.keys
	if src.in == nil {
		return
	}
	kc := dst.keysFor(src.in)
	for i, p := range w.Procs {
		if pc, ok := src.mach[i].peek(p.M.Stamp()); ok {
			kc.mach[i].put(dst.Procs[i].M.Stamp(), pc)
		}
	}
	for i, c := range w.Chans {
		if pc, ok := src.queue[i].peek(c.stamp); ok {
			kc.queue[i].put(dst.Chans[i].stamp, pc)
		}
	}
	// Globals are keyed by content, which the copy shares.
	src.glob.handOver(&kc.glob, w)
}
