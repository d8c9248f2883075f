package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Symmetry declares the replica structure of a world: groups of
// interchangeable process bundles ("replicas" — e.g. the GMM+SM stack
// of one UE together with its SGSN peers) whose wholesale exchange maps
// reachable states onto reachable states. The checker uses it
// (check.Options.Symmetry) to explore the quotient under replica
// permutations: the canonical encoding sorts the per-replica
// sub-encodings lexicographically before hashing, so all n!
// permutations of a multi-UE state collapse into one visited-set entry.
//
// A declaration is sound when the replicas really are symmetric: same
// specs in the same role order, instance-local wiring (replica processes
// send only within their replica or to shared non-replica processes),
// per-replica globals confined to the replica's "g.<NS>." namespace,
// and a scenario offering the same events to every replica. The
// permutation-invariance suite (symmetry_test.go) checks the encoding
// half of this contract; core's world builders own the modeling half.
type Symmetry struct {
	Groups []SymGroup
}

// SymGroup is one orbit of interchangeable replicas.
type SymGroup struct {
	Replicas []SymReplica
}

// SymReplica names the state owned by one replica.
type SymReplica struct {
	// Procs lists the replica's process names. Position is the role:
	// Procs[j] of every replica in a group must play the same part
	// (e.g. j=0 is always the device-side GMM).
	Procs []string
	// NS is the replica's globals namespace: every global named
	// "g.<NS>.<suffix>" belongs to this replica (the fsm.NamespaceGlobals
	// convention). The sorted globals layout keeps the namespace a
	// contiguous span, so the encoder finds it by binary search.
	NS string
	// Atoms are the name fragments identifying this replica inside
	// property descriptions and step notes (e.g. ["sgsn1", "ue1"]).
	// Position is the role, like Procs. The checker rewrites violations
	// along permutations by exchanging corresponding atoms.
	Atoms []string
}

// symResolution is the per-world resolved form of a Symmetry: process
// indices instead of names. It is immutable after SetSymmetry and
// shared by clones (CloneInto preserves process order).
type symResolution struct {
	groups [][]symReplicaRes
	// rest lists the processes belonging to no replica, in world order.
	rest []int
}

type symReplicaRes struct {
	procs  []int
	prefix string // "g." + NS + "."
}

// symScratch is per-world reusable working storage for EncodeCanonical
// (never shared between worlds; CloneInto skips it, like scratch). It
// is also a cache, valid for one resolved descriptor (res): reps keeps
// every replica's last sub-encoding, and lays what was resolved against
// each globals layout the world has been seen with — layouts are
// immutable and Restore keeps coming back to the same few, so each is
// resolved once.
type symScratch struct {
	res   *symResolution
	reps  []repCache // one per replica, groups flattened in res order
	order []int
	lays  map[*glayout]*symLayout
}

// symLayout is one globals layout as the descriptor divides it: its
// names (nil for a world without globals), each replica's namespace
// span (reps order) and the indices left over.
type symLayout struct {
	names []string
	spans []gspan
	rest  []int32
}

// gspan is a half-open range of globals-layout indices.
type gspan struct{ lo, hi int }

// repCache is one replica's sub-encoding plus what it was encoded from.
// sub[:keep] — machines, queues and globals — stands while the machines
// and queues still carry stamps (equal stamp, equal content) and the
// replica's globals still have these names and values; keep = 0 says
// nothing stands. Armed timers follow it and are encoded on every call:
// their windows are relative to a clock that most steps move.
type repCache struct {
	sub    []byte
	keep   int
	stamps []uint64 // machine stamps, then queue stamps, in role order
	gnames []string // a sub-slice of some layout's names, never written
	gvals  []int32
}

// SetSymmetry attaches a replica-symmetry descriptor to the world and
// resolves it against the current process table. Clones share the
// resolved descriptor. Passing nil detaches it (EncodeCanonical then
// degenerates to Encode).
func (w *World) SetSymmetry(sym *Symmetry) error {
	if sym == nil {
		w.sym, w.symRes = nil, nil
		return nil
	}
	if len(w.Procs) != len(w.Chans) {
		return fmt.Errorf("model: symmetry: world has %d procs but %d channels", len(w.Procs), len(w.Chans))
	}
	res := &symResolution{}
	inReplica := make(map[int]bool)
	seenNS := make(map[string]bool)
	for gi, g := range sym.Groups {
		if len(g.Replicas) == 0 {
			return fmt.Errorf("model: symmetry: group %d has no replicas", gi)
		}
		role := len(g.Replicas[0].Procs)
		grp := make([]symReplicaRes, 0, len(g.Replicas))
		for ri, r := range g.Replicas {
			if len(r.Procs) != role {
				return fmt.Errorf("model: symmetry: group %d replica %d has %d procs, want %d",
					gi, ri, len(r.Procs), role)
			}
			if r.NS == "" {
				return fmt.Errorf("model: symmetry: group %d replica %d has no namespace", gi, ri)
			}
			if seenNS[r.NS] {
				return fmt.Errorf("model: symmetry: namespace %q used by two replicas", r.NS)
			}
			seenNS[r.NS] = true
			rr := symReplicaRes{prefix: "g." + r.NS + ".", procs: make([]int, 0, role)}
			for _, name := range r.Procs {
				idx := -1
				for i, p := range w.Procs {
					if p.Name == name {
						idx = i
						break
					}
				}
				if idx < 0 {
					return fmt.Errorf("model: symmetry: unknown process %q", name)
				}
				if inReplica[idx] {
					return fmt.Errorf("model: symmetry: process %q claimed by two replicas", name)
				}
				inReplica[idx] = true
				rr.procs = append(rr.procs, idx)
			}
			grp = append(grp, rr)
		}
		res.groups = append(res.groups, grp)
	}
	for i := range w.Procs {
		if !inReplica[i] {
			res.rest = append(res.rest, i)
		}
	}
	w.sym, w.symRes = sym, res
	return nil
}

// Symmetry returns the attached replica-symmetry descriptor, or nil.
func (w *World) Symmetry() *Symmetry { return w.sym }

// filterSymmetry builds the descriptor for a projection keeping only
// the given processes: replicas survive when every one of their
// processes is kept, groups survive when any replica does (a
// single-replica group canonicalizes trivially but keeps the encoding
// layout consistent across sibling projections). Returns nil when
// nothing survives.
func (w *World) filterSymmetry(keep map[string]bool) *Symmetry {
	if w.sym == nil {
		return nil
	}
	var out Symmetry
	for _, g := range w.sym.Groups {
		var ng SymGroup
		for _, r := range g.Replicas {
			all := true
			for _, p := range r.Procs {
				if !keep[p] {
					all = false
					break
				}
			}
			if all {
				ng.Replicas = append(ng.Replicas, r)
			}
		}
		if len(ng.Replicas) > 0 {
			out.Groups = append(out.Groups, ng)
		}
	}
	if len(out.Groups) == 0 {
		return nil
	}
	return &out
}

// scratchFor returns the world's canonical-encoding scratch and its
// resolution of the current globals layout. Namespaced globals grow
// lazily (first write) and the sorted layout keeps each namespace
// contiguous, so a span is a binary search plus a scan.
func (w *World) scratchFor() (*symScratch, *symLayout) {
	sc := w.symScratch
	if sc == nil || sc.res != w.symRes {
		sc = &symScratch{res: w.symRes, lays: make(map[*glayout]*symLayout)}
		for _, grp := range w.symRes.groups {
			for ri := range grp {
				sc.reps = append(sc.reps, repCache{stamps: make([]uint64, 2*len(grp[ri].procs))})
			}
		}
		w.symScratch = sc
	}
	if lay := sc.lays[w.glay]; lay != nil {
		return sc, lay
	}
	lay := &symLayout{spans: make([]gspan, 0, len(sc.reps))}
	if w.glay != nil {
		lay.names = w.glay.names
	}
	for _, grp := range w.symRes.groups {
		for ri := range grp {
			lo := sort.SearchStrings(lay.names, grp[ri].prefix)
			hi := lo
			for hi < len(lay.names) && strings.HasPrefix(lay.names[hi], grp[ri].prefix) {
				hi++
			}
			lay.spans = append(lay.spans, gspan{lo, hi})
		}
	}
next:
	for i := range lay.names {
		for _, sp := range lay.spans {
			if i >= sp.lo && i < sp.hi {
				continue next
			}
		}
		lay.rest = append(lay.rest, int32(i))
	}
	sc.lays[w.glay] = lay
	return sc, lay
}

// encodeQueueLocal appends the queue encoding of one channel with
// replica-relative sender names: a message sent from inside the replica
// encodes as its sender's role index (tag 1), so the bytes are
// identical across corresponding replicas; any other sender (shared
// infrastructure, the environment) encodes by name (tag 0). The other
// message fields match Encode's fixed-width record.
func (w *World) encodeQueueLocal(buf []byte, c *Channel, local []int) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(c.queue)))
	buf = append(buf, tmp[:2]...)
	for _, m := range c.queue {
		binary.LittleEndian.PutUint16(tmp[:2], uint16(m.Kind))
		buf = append(buf, tmp[:2]...)
		binary.LittleEndian.PutUint16(tmp[:2], uint16(m.Cause))
		buf = append(buf, tmp[:2]...)
		binary.LittleEndian.PutUint32(tmp[:4], m.Seq)
		buf = append(buf, tmp[:4]...)
		buf = append(buf, byte(m.System), byte(m.Domain), byte(m.Proto))
		role := -1
		for j, pi := range local {
			if w.Procs[pi].Name == m.From {
				role = j
				break
			}
		}
		if role >= 0 {
			buf = append(buf, 1, byte(role))
		} else {
			buf = append(buf, 0)
			buf = append(buf, m.From...)
			buf = append(buf, 0)
		}
	}
	return buf
}

// encodeReplica brings rc.sub up to date with the replica's current
// state: machines in role order, queues with replica-relative senders,
// the globals of the replica's namespace (gnames, gvals: its span of
// the layout and of the slab), and on timed worlds its armed timers.
func (w *World) encodeReplica(rep *symReplicaRes, rc *repCache, gnames []string, gvals []int32) {
	var tmp [4]byte
	n := len(rep.procs)
	kept := rc.keep > 0 && slices.Equal(rc.gvals, gvals)
	for j := 0; kept && j < n; j++ {
		pi := rep.procs[j]
		kept = rc.stamps[j] == w.Procs[pi].M.Stamp() && rc.stamps[n+j] == w.Chans[pi].stamp
	}
	// As many globals as before; the same ones? Yes if this is the very
	// stretch of names the cache saw. Otherwise compare: the layout may
	// be a sibling (another namespace grew meanwhile, or this one did).
	if kept && len(gnames) > 0 && &rc.gnames[0] != &gnames[0] {
		kept = slices.Equal(rc.gnames, gnames)
	}
	sub := rc.sub[:rc.keep]
	if !kept {
		sub = sub[:0]
		for j, pi := range rep.procs {
			rc.stamps[j] = w.Procs[pi].M.Stamp()
			sub = w.Procs[pi].M.Encode(sub)
		}
		for j, pi := range rep.procs {
			rc.stamps[n+j] = w.Chans[pi].stamp
			sub = w.encodeQueueLocal(sub, w.Chans[pi], rep.procs)
		}
		rc.gnames, rc.gvals = gnames, append(rc.gvals[:0], gvals...)
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(gnames)))
		sub = append(sub, tmp[:2]...)
		for i, name := range gnames {
			sub = append(sub, name[len(rep.prefix):]...)
			sub = append(sub, 0)
			binary.LittleEndian.PutUint32(tmp[:4], uint32(gvals[i]))
			sub = append(sub, tmp[:4]...)
		}
		rc.keep = len(sub)
	}
	// The replica's armed timers, in definition order, keyed by the
	// replica-agnostic timer name plus the zone-relative window —
	// identical bytes across corresponding replicas (timing.go requires
	// corresponding timers to share names and per-replica declaration
	// order).
	if w.timing != nil {
		for ti := range w.timers {
			pi := int(w.timing.defProc[w.timers[ti].def])
			for _, rp := range rep.procs {
				if rp == pi {
					d := &w.timing.defs[w.timers[ti].def]
					sub = append(sub, d.Name...)
					sub = append(sub, 0)
					sub = w.encodeTimerRel(sub, &w.timers[ti])
					break
				}
			}
		}
	}
	rc.sub = sub
}

// EncodeCanonical appends the symmetry-canonical encoding of the world:
// for each group, the replica sub-encodings (encodeReplica) are
// length-prefixed and sorted lexicographically, so every permutation of
// a group's replicas encodes identically; the non-replica machines,
// queues and globals follow positionally exactly as in Encode. Without
// a symmetry descriptor it IS Encode.
//
// The hot-path contract matches Encode: memoized machine encodings, no
// map iteration, no string building, and all working storage lives in
// the world's reusable scratch — steady state allocates nothing.
func (w *World) EncodeCanonical(buf []byte) []byte {
	if w.sym == nil || w.symRes == nil {
		return w.Encode(buf)
	}
	sc, lay := w.scratchFor()
	var tmp [4]byte
	reps, spans := sc.reps, lay.spans
	for _, grp := range w.symRes.groups {
		for ri := range grp {
			sp := spans[ri]
			w.encodeReplica(&grp[ri], &reps[ri], lay.names[sp.lo:sp.hi], w.gvals[sp.lo:sp.hi])
		}
		// Insertion-sort the replica order by sub-encoding bytes — the
		// canonicalization step. Group sizes are small (one entry per
		// UE), so insertion sort beats sort.Slice and allocates nothing.
		order := sc.order[:0]
		for i := range grp {
			j := len(order)
			for j > 0 && bytes.Compare(reps[order[j-1]].sub, reps[i].sub) > 0 {
				j--
			}
			order = append(order, 0)
			copy(order[j+1:], order[j:])
			order[j] = i
		}
		sc.order = order
		for _, ri := range order {
			binary.LittleEndian.PutUint32(tmp[:4], uint32(len(reps[ri].sub)))
			buf = append(buf, tmp[:4]...)
			buf = append(buf, reps[ri].sub...)
		}
		reps, spans = reps[len(grp):], spans[len(grp):]
	}
	for _, pi := range w.symRes.rest {
		buf = w.Procs[pi].M.Encode(buf)
	}
	for _, pi := range w.symRes.rest {
		buf = w.encodeQueueLocal(buf, w.Chans[pi], nil)
	}
	// Non-replica globals: the complement of the namespaced spans.
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(lay.rest)))
	buf = append(buf, tmp[:2]...)
	for _, i := range lay.rest {
		buf = append(buf, lay.names[i]...)
		buf = append(buf, 0)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(w.gvals[i]))
		buf = append(buf, tmp[:4]...)
	}
	// Armed timers of non-replica processes follow positionally, as in
	// Encode (replica-owned timers were folded into the sub-encodings).
	if w.timing != nil {
		for ti := range w.timers {
			pi := int(w.timing.defProc[w.timers[ti].def])
			inRest := false
			for _, rp := range w.symRes.rest {
				if rp == pi {
					inRest = true
					break
				}
			}
			if !inRest {
				continue
			}
			binary.LittleEndian.PutUint16(tmp[:2], uint16(w.timers[ti].def))
			buf = append(buf, tmp[:2]...)
			buf = w.encodeTimerRel(buf, &w.timers[ti])
		}
	}
	return buf
}

// CanonicalHash returns the hash64 digest of the symmetry-canonical
// encoding (EncodeCanonical), equal for permutation-equivalent worlds.
func (w *World) CanonicalHash() uint64 {
	h, _ := w.AppendCanonicalHash(nil)
	return h
}

// AppendCanonicalHash is AppendHash over the symmetry-canonical
// encoding: it encodes into buf[:0] and returns the hash64 digest plus
// the reused buffer.
func (w *World) AppendCanonicalHash(buf []byte) (uint64, []byte) {
	buf = w.EncodeCanonical(buf[:0])
	return hash64(buf), buf
}
