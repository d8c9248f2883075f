// Package fuzz implements coverage-guided fuzzing over scenario event
// schedules (the §3.2.1 usage-scenario space) and delta-debugging
// minimization of violation traces.
//
// Where the checker's RandomWalk samples schedules uniformly, the
// fuzzer keeps a corpus of schedules and mutates the ones that light up
// new behavior — new spec transitions fired or new cross-layer message
// pairs exchanged — the feedback loop that steers sampling toward the
// rare interleavings where protocol interactions go wrong. Violations
// found by either engine can be handed to Shrink, which reduces the
// triggering schedule to a locally-minimal one with ddmin and
// re-verifies it via check.Replay at every step.
package fuzz

import (
	"fmt"
	"sort"
	"strings"

	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// Coverage is the fuzzer's feedback signal over one world shape: a
// per-process transition bitmap (indexed by the spec's interned
// transition indices, exactly the indices Step.TransIdx carries) plus
// the set of cross-layer message pairs observed — (sender process,
// receiver process, message kind) triples seen on delivery steps. The
// pair dimension is what distinguishes "every transition fired
// somewhere" from "these two layers actually talked".
type Coverage struct {
	// procs and trans mirror the world's process list: trans[i] is the
	// fired-bitmap of proc i, words of 64 transitions each.
	procs []string
	trans [][]uint64
	total int
	// pairs maps packed (fromProc, toProc, kind) triples.
	pairs map[uint64]struct{}
}

// NewCoverage builds an empty coverage map shaped like the world.
func NewCoverage(w *model.World) *Coverage {
	c := &Coverage{
		procs: make([]string, len(w.Procs)),
		trans: make([][]uint64, len(w.Procs)),
		pairs: make(map[uint64]struct{}),
	}
	for i, p := range w.Procs {
		n := len(p.M.Spec().Transitions)
		c.procs[i] = p.Name
		c.trans[i] = make([]uint64, (n+63)/64)
		c.total += n
	}
	return c
}

func pairKey(from, to int, kind types.MsgKind) uint64 {
	return uint64(from)<<32 | uint64(to)<<16 | uint64(kind)
}

// Note records one applied step, returning true when it set a bit that
// was not set before (the "interesting input" signal).
func (c *Coverage) Note(w *model.World, s model.Step) bool {
	fresh := false
	if s.Label != "" {
		if i, ok := w.ProcIndex(s.Proc); ok && i < len(c.trans) {
			word, bit := s.TransIdx/64, uint64(1)<<(s.TransIdx%64)
			if word < len(c.trans[i]) && c.trans[i][word]&bit == 0 {
				c.trans[i][word] |= bit
				fresh = true
			}
		}
	}
	if s.Kind == model.StepDeliver && s.Msg.From != "" {
		if from, ok := w.ProcIndex(s.Msg.From); ok {
			if to, ok := w.ProcIndex(s.Proc); ok {
				k := pairKey(from, to, s.Msg.Kind)
				if _, seen := c.pairs[k]; !seen {
					c.pairs[k] = struct{}{}
					fresh = true
				}
			}
		}
	}
	return fresh
}

// Merge folds other into c, returning how many bits were newly set.
// The shapes must match (both built from the same world).
func (c *Coverage) Merge(other *Coverage) int {
	fresh := 0
	for i := range other.trans {
		if i >= len(c.trans) {
			break
		}
		for w, bits := range other.trans[i] {
			if neu := bits &^ c.trans[i][w]; neu != 0 {
				fresh += popcount(neu)
				c.trans[i][w] |= neu
			}
		}
	}
	for k := range other.pairs {
		if _, seen := c.pairs[k]; !seen {
			c.pairs[k] = struct{}{}
			fresh++
		}
	}
	return fresh
}

// hasNew reports whether c holds a bit base lacks — whether Merge of c
// into base, or into any superset of base, could report new bits.
func (c *Coverage) hasNew(base *Coverage) bool {
	for i, words := range c.trans {
		for w, bits := range words {
			if bits&^base.trans[i][w] != 0 {
				return true
			}
		}
	}
	for k := range c.pairs {
		if _, seen := base.pairs[k]; !seen {
			return true
		}
	}
	return false
}

// reset empties c in place for reuse by the next run.
func (c *Coverage) reset() {
	for _, words := range c.trans {
		clear(words)
	}
	clear(c.pairs)
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Transitions returns the fired and total spec-transition counts.
func (c *Coverage) Transitions() (fired, total int) {
	for _, words := range c.trans {
		for _, w := range words {
			fired += popcount(w)
		}
	}
	return fired, c.total
}

// Pairs returns the number of distinct cross-layer message pairs seen.
func (c *Coverage) Pairs() int { return len(c.pairs) }

// Digest returns an FNV-64a digest of the coverage map — a stable
// fingerprint for the determinism contract (same seed, budget and
// corpus must reproduce the same digest).
func (c *Coverage) Digest() string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime64
		}
	}
	for i, name := range c.procs {
		for _, b := range []byte(name) {
			h ^= uint64(b)
			h *= prime64
		}
		for _, w := range c.trans[i] {
			mix(w)
		}
	}
	keys := make([]uint64, 0, len(c.pairs))
	for k := range c.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		mix(k)
	}
	return fmt.Sprintf("%016x", h)
}

// Report renders a per-process coverage table with the transitions
// never fired, mirroring check.SpecCoverage's view.
func (c *Coverage) Report(w *model.World) string {
	var b []byte
	fired, total := c.Transitions()
	b = fmt.Appendf(b, "transition coverage %d/%d (%.0f%%), %d cross-layer message pairs\n",
		fired, total, 100*frac(fired, total), len(c.pairs))
	for i, p := range w.Procs {
		if i >= len(c.trans) {
			break
		}
		spec := p.M.Spec()
		n := 0
		var missed []string
		for ti, t := range spec.Transitions {
			if c.trans[i][ti/64]&(1<<(ti%64)) != 0 {
				n++
			} else {
				missed = append(missed, t.Name)
			}
		}
		b = fmt.Appendf(b, "  %-12s %3d/%3d", p.Name, n, len(spec.Transitions))
		if len(missed) > 0 {
			b = fmt.Appendf(b, "  missed: %s", strings.Join(missed, ", "))
		}
		b = append(b, '\n')
	}
	return string(b)
}

func frac(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}
