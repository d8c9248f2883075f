package check

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the visited-state store shared by every engine:
// an open-addressing fingerprint table in Spin's lineage, striped into
// vtShards independent shards, each behind its own mutex.
//
// Layout. A state's 48-bit fingerprint (the top bits of its hash,
// forced non-zero) picks its shard by its low bits. Inside the shard a
// flat []uint64 slot array packs the fingerprint with the state's
// 16-bit minimal discovery depth:
//
//	63                    16 15           0
//	+-----------------------+-------------+
//	|      fingerprint      |  min depth  |
//	+-----------------------+-------------+
//
// A zero slot is empty. Probing is linear from the fingerprint's home
// index; a rediscovery at a strictly shallower depth lowers the depth
// (min-depth re-expansion). There are no deletions.
//
// Exactness backstop. A parallel refs array holds, per claimed slot, a
// reference into the shard's append-only key chunks, where the state's
// collapsed key lives: the ids of its interned components
// (model.World.AppendKey), a few bytes where the full encoding took
// hundreds. A fingerprint match is confirmed against the stored key
// before the slot is treated as "this state"; a genuine collision keeps
// probing and the colliding state claims its own slot. Two distinct
// states are therefore never merged, and the per-state footprint stays
// 16 bytes of table plus the key bytes.
//
// Growth. A shard that passes 3/4 occupancy doubles and rehashes in
// place, under its lock. Probe, claim, min-depth merge, key compare and
// growth all run under the one shard lock, so the workers of a layered
// run contend only when two of them mark states of the same shard at
// once.
const (
	vtDepthBits = 16
	vtDepthMask = (1 << vtDepthBits) - 1
	// vtDepthMax is the deepest discovery depth a slot can hold; Run
	// refuses a larger Options.MaxDepth rather than coarsen min-depth
	// re-expansion above it.
	vtDepthMax = vtDepthMask
	// vtShards is the number of lock stripes (a power of two).
	vtShards = 16
	// vtMinSlots is the initial table size over all shards (8 KB of
	// slots): small enough that screening a few hundred states never
	// touches a big allocation, a handful of doublings away from
	// millions.
	vtMinSlots = 1 << 10
)

// vtFP extracts the slot fingerprint from a state hash.
func vtFP(h uint64) uint64 {
	fp := h >> vtDepthBits
	if fp == 0 {
		fp = 1 // fp 0 is reserved for empty slots
	}
	return fp
}

func vtPack(fp uint64, depth int) uint64 { return fp<<vtDepthBits | uint64(depth) }
func vtSlotFP(v uint64) uint64           { return v >> vtDepthBits }
func vtSlotDepth(v uint64) int           { return int(v & vtDepthMask) }

// vtShard is one lock stripe: its slots, their key references and the
// key chunks they point into. Every field is guarded by mu.
type vtShard struct {
	mu    sync.Mutex
	slots []uint64
	refs  []uint64
	shift uint // home(fp) = fp * phi >> shift
	used  int
	grows int
	keys  keyChunks
}

func (s *vtShard) alloc(n int) {
	s.slots = make([]uint64, n)
	s.refs = make([]uint64, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// home is the probe start index (Fibonacci hashing of the fingerprint).
func (s *vtShard) home(fp uint64) uint64 {
	return (fp * 0x9E3779B97F4A7C15) >> s.shift
}

// grow doubles the shard and re-homes every entry. Entries are distinct
// by construction, so the rehash compares no keys.
func (s *vtShard) grow() {
	slots, refs := s.slots, s.refs
	s.alloc(2 * len(slots))
	mask := uint64(len(s.slots) - 1)
	for i, val := range slots {
		if val == 0 {
			continue
		}
		j := s.home(vtSlotFP(val))
		for s.slots[j] != 0 {
			j = (j + 1) & mask
		}
		s.slots[j], s.refs[j] = val, refs[i]
	}
	s.grows++
}

// visitedTable is the engine-facing store: the shards, and the state
// accounting shared with MaxStates and the campaign Budget.
type visitedTable struct {
	paranoid bool
	limit    int64
	budget   *Budget
	states   atomic.Int64
	shards   [vtShards]vtShard
}

// newVisitedTable returns a table of about the given total slot count,
// split evenly over the shards.
func newVisitedTable(paranoid bool, limit int64, budget *Budget, slots int) *visitedTable {
	v := &visitedTable{paranoid: paranoid, limit: limit, budget: budget}
	per := 4
	for per*vtShards < slots {
		per *= 2
	}
	for i := range v.shards {
		v.shards[i].alloc(per)
	}
	return v
}

func (v *visitedTable) size() int { return int(v.states.Load()) }

// reserve counts one new state against MaxStates and the shared Budget,
// reporting false (and taking nothing) when either refuses it.
func (v *visitedTable) reserve() bool {
	if cur := v.states.Add(1); v.limit > 0 && cur > v.limit {
		v.states.Add(-1)
		return false
	}
	if !v.budget.take() {
		v.states.Add(-1)
		return false
	}
	return true
}

// mark records the state with fingerprint hash h and key enc
// discovered at the given depth (at most vtDepthMax): isNew for a
// first discovery, expand for first discovery or strictly shallower
// rediscovery, capped when MaxStates or the shared Budget refused the
// state.
func (v *visitedTable) mark(h uint64, enc []byte, depth int) (markResult, error) {
	fp := vtFP(h)
	s := &v.shards[fp&(vtShards-1)]
	s.mu.Lock()
	m, err := v.markIn(s, fp, enc, depth)
	s.mu.Unlock()
	return m, err
}

// markIn is mark's probe, run under s.mu. The shard is never more than
// 3/4 full, so the probe always ends at an empty slot or a match.
func (v *visitedTable) markIn(s *vtShard, fp uint64, enc []byte, depth int) (markResult, error) {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(fp); ; i = (i + 1) & mask {
		val := s.slots[i]
		switch {
		case val == 0:
			if !v.reserve() {
				return markResult{capped: true}, nil
			}
			s.slots[i] = vtPack(fp, depth)
			s.refs[i] = s.keys.store(enc)
			if s.used++; s.used*4 > len(s.slots)*3 {
				s.grow()
			}
			return markResult{isNew: true, expand: true}, nil
		case vtSlotFP(val) != fp:
			// Some other entry; keep probing.
		case string(s.keys.load(s.refs[i])) != string(enc):
			// Same fingerprint, different state: paranoid errors,
			// otherwise probe on for the colliding state's own slot.
			if v.paranoid {
				return markResult{}, fmt.Errorf(
					"check: hash collision: fingerprint %#x shared by two distinct states (%d-byte key)", fp, len(enc))
			}
		case depth < vtSlotDepth(val):
			s.slots[i] = vtPack(fp, depth)
			return markResult{expand: true}, nil
		default:
			return markResult{}, nil
		}
	}
}

// VisitedStats describes the visited table after a run: sizing, probe
// quality, key footprint and the interned components behind it. Live,
// Slots, Grows and Components depend only on the set of states, so they
// are equal at every worker count; ArenaBytes follows interning order
// and MaxProbe and ProbeHist follow claim order, so a parallel run may
// differ from a sequential one in those.
type VisitedStats struct {
	// Slots and Live are the final capacity and claimed slots, summed
	// over the shards.
	Slots, Live int
	// Grows counts shard doublings over the run.
	Grows int
	// MaxProbe is the worst final probe displacement (0 = every entry
	// sits at its home slot).
	MaxProbe int
	// ProbeHist buckets entries by probe displacement 0..7, with an
	// 8-and-over tail bucket.
	ProbeHist [9]int
	// ArenaBytes is the total key bytes retained by the exactness
	// backstop.
	ArenaBytes int64
	// Components is the number of distinct state components (machine
	// contents, inbox contents, globals vectors, timer windows, replica
	// sub-states) interned to build the keys; each is stored once.
	Components int
}

func (s *VisitedStats) String() string {
	if s == nil {
		return "visited: (no stats)"
	}
	occ := 0.0
	if s.Slots > 0 {
		occ = float64(s.Live) / float64(s.Slots)
	}
	out := fmt.Sprintf("visited: %d/%d slots (%.1f%% occupancy), %d grows, arena %d B of keys, %d components, max probe %d\n",
		s.Live, s.Slots, occ*100, s.Grows, s.ArenaBytes, s.Components, s.MaxProbe)
	out += "probe histogram:"
	for i, n := range s.ProbeHist {
		label := fmt.Sprintf("%d", i)
		if i == len(s.ProbeHist)-1 {
			label = fmt.Sprintf("%d+", i)
		}
		out += fmt.Sprintf(" %s:%d", label, n)
	}
	return out
}

// merge folds another table's stats in (POR cluster runs each carry
// their own table).
func (s *VisitedStats) merge(o *VisitedStats) {
	if o == nil {
		return
	}
	s.Slots += o.Slots
	s.Live += o.Live
	s.Grows += o.Grows
	if o.MaxProbe > s.MaxProbe {
		s.MaxProbe = o.MaxProbe
	}
	for i := range s.ProbeHist {
		s.ProbeHist[i] += o.ProbeHist[i]
	}
	s.ArenaBytes += o.ArenaBytes
	s.Components += o.Components
}

// stats scans every shard.
func (v *visitedTable) stats() *VisitedStats {
	st := &VisitedStats{}
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		st.Slots += len(s.slots)
		st.Grows += s.grows
		st.ArenaBytes += s.keys.bytes
		mask := uint64(len(s.slots) - 1)
		for j, val := range s.slots {
			if val == 0 {
				continue
			}
			st.Live++
			d := int((uint64(j) - s.home(vtSlotFP(val))) & mask)
			st.MaxProbe = max(st.MaxProbe, d)
			st.ProbeHist[min(d, len(st.ProbeHist)-1)]++
		}
		s.mu.Unlock()
	}
	return st
}

// keyChunks is a shard's append-only key store. Chunk sizes double from
// 1 KB to 512 KB so small runs pay small allocations; an oversized key
// gets a dedicated chunk. A reference packs (chunk, offset, length).
const (
	keyChunkMin = 1 << 10
	keyChunkMax = 512 << 10
	keyMaxLen   = 1<<20 - 1
)

type keyChunks struct {
	chunks [][]byte
	off    int // write offset into the newest chunk
	bytes  int64
}

// store copies enc in and returns its reference.
func (k *keyChunks) store(enc []byte) uint64 {
	if len(enc) > keyMaxLen {
		panic(fmt.Sprintf("check: state key of %d bytes exceeds the visited arena limit", len(enc)))
	}
	if n := len(k.chunks); n == 0 || k.off+len(enc) > len(k.chunks[n-1]) {
		size := keyChunkMax
		if n < 7 {
			size = keyChunkMin << n
		}
		k.chunks = append(k.chunks, make([]byte, max(size, len(enc))))
		k.off = 0
	}
	chunk, off := len(k.chunks)-1, k.off
	copy(k.chunks[chunk][off:], enc)
	k.off += len(enc)
	k.bytes += int64(len(enc))
	return uint64(chunk)<<41 | uint64(off)<<20 | uint64(len(enc))
}

// load returns the stored bytes of a reference.
func (k *keyChunks) load(ref uint64) []byte {
	chunk, off, n := int(ref>>41), int(ref>>20&0x1FFFFF), int(ref&0xFFFFF)
	return k.chunks[chunk][off : off+n]
}
