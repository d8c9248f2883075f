package model

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
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
//   - The fingerprint is a hash over the pieces' content hashes in key
//     order, so it depends on the state alone — not on the order in
//     which a run happened to intern its pieces, nor on its workers.
//   - Each world remembers, per component, the pieces of its last two
//     contents by change stamp (keyCache): a step re-encodes and
//     re-interns only what it touched, and the apply/restore ping-pong
//     of an expansion finds the parent's pieces still there. CloneInto
//     hands the source's pieces to the copy's fresh stamps.

// piece is one interned component: its dense id and the hash64 of its
// bytes.
type piece struct {
	id   uint32
	hash uint64
}

// Interner numbers distinct state components for one checking run. It
// is safe for concurrent use, and its read path takes no lock and
// writes nothing shared: lookups read a snapshot map through an atomic
// pointer. A miss falls back to a mutex-guarded overflow map, and the
// overflow is folded into a fresh snapshot once the misses since the
// last fold would pay for copying it.
type Interner struct {
	snap atomic.Pointer[map[string]piece]

	mu     sync.Mutex
	over   map[string]piece // interned since the snapshot was taken
	n      int              // pieces interned
	misses int              // lookups served under mu since the last fold
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{over: make(map[string]piece)}
	in.snap.Store(&map[string]piece{})
	return in
}

// Len returns the number of distinct pieces interned.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// intern returns the piece for the bytes b, numbering it on first
// sight. b is not retained.
func (in *Interner) intern(b []byte) piece {
	if p, ok := (*in.snap.Load())[string(b)]; ok {
		return p
	}
	return in.internLocked(b)
}

func (in *Interner) internLocked(b []byte) piece {
	in.mu.Lock()
	defer in.mu.Unlock()
	snap := *in.snap.Load()
	p, ok := snap[string(b)] // a fold may have moved it since the first look
	if !ok {
		if p, ok = in.over[string(b)]; !ok {
			p = piece{id: uint32(in.n), hash: hash64(b)}
			in.n++
			in.over[string(b)] = p
		}
	}
	if in.misses++; in.misses > len(snap)/2+32 {
		next := make(map[string]piece, len(snap)+len(in.over))
		for k, v := range snap {
			next[k] = v
		}
		for k, v := range in.over {
			next[k] = v
		}
		in.snap.Store(&next)
		clear(in.over)
		in.misses = 0
	}
	return p
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

// internTail interns enc[len(b.buf):], a piece encoded after the key
// so far, and drops it, keeping any growth of the buffer.
func (b *keyBuilder) internTail(enc []byte) piece {
	p := b.in.intern(enc[len(b.buf):])
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
	p := b.internTail(m.Encode(b.buf))
	kc.mach[i].put(m.Stamp(), p)
	return p
}

func (b *keyBuilder) queue(w *World, kc *keyCache, i int) piece {
	c := w.Chans[i]
	if p, ok := kc.queue[i].get(c.stamp); ok {
		return p
	}
	p := b.internTail(appendQueue(b.buf, c))
	kc.queue[i].put(c.stamp, p)
	return p
}

func (b *keyBuilder) restQueue(w *World, kc *keyCache, i int) piece {
	c := w.Chans[i]
	if p, ok := kc.lqueue[i].get(c.stamp); ok {
		return p
	}
	p := b.internTail(w.encodeQueueLocal(b.buf, c, nil))
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
		p = b.internTail(w.appendGlobals(b.buf))
		kc.glob.put(w.glay, w.gvals, p)
	}
	b.add(p)
	if w.timing != nil {
		b.add(b.internTail(w.encodeTimers(b.buf)))
	}
	return b.sum()
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
				p = in.intern(reps[ri].sub)
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
		p = b.internTail(w.appendRestGlobals(b.buf, lay))
		kc.rglob.put(w.glay, w.gvals, p)
	}
	b.add(p)
	if w.timing != nil {
		b.add(b.internTail(w.appendRestTimers(b.buf)))
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
// the pieces w's cache holds for w's current content, filed under
// dst's fresh stamps — without it every copy would re-encode and
// re-intern each of its components the first time it is keyed.
func (w *World) handOverKeys(dst *World) {
	src := &w.keys
	if src.in == nil {
		return
	}
	kc := dst.keysFor(src.in)
	canon := src.res != nil && src.res == w.symRes && w.symScratch != nil
	if canon {
		kc.canonFor(dst)
	}
	for i, p := range w.Procs {
		if pc, ok := src.mach[i].peek(p.M.Stamp()); ok {
			kc.mach[i].put(dst.Procs[i].M.Stamp(), pc)
		}
	}
	for i, c := range w.Chans {
		if pc, ok := src.queue[i].peek(c.stamp); ok {
			kc.queue[i].put(dst.Chans[i].stamp, pc)
		}
		if canon {
			if pc, ok := src.lqueue[i].peek(c.stamp); ok {
				kc.lqueue[i].put(dst.Chans[i].stamp, pc)
			}
		}
	}
	// Globals are keyed by content, which the copy shares.
	src.glob.handOver(&kc.glob, w)
	if !canon {
		return
	}
	src.rglob.handOver(&kc.rglob, w)
	lay := w.symScratch.lays[w.glay]
	if lay == nil || w.timing != nil {
		return
	}
	k := 0
	for _, grp := range w.symRes.groups {
		for ri := range grp {
			sp := lay.spans[k]
			gnames, gvals := lay.names[sp.lo:sp.hi], w.gvals[sp.lo:sp.hi]
			for e := range src.reps[k].ok {
				if src.reps[k].ok[e] && src.reps[k].at[e].matches(w, &grp[ri], gnames, gvals) {
					kc.reps[k].put(dst, &grp[ri], gnames, gvals, src.reps[k].p[e])
					break
				}
			}
			k++
		}
	}
}
