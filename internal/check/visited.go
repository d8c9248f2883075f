package check

import (
	"sort"
	"strings"
	"sync/atomic"

	"cnetverifier/internal/model"
)

// Budget is a token budget of distinct states shared by several
// checking runs (the campaign-level bound of a screening sweep: N
// scenarios drawing from one pool instead of N private caps). Each
// newly discovered state consumes one token; when the pool is dry every
// participating run truncates. The zero value has no tokens; share one
// *Budget across runs via Options.Budget.
type Budget struct {
	left atomic.Int64
}

// NewBudget returns a budget holding the given number of state tokens.
func NewBudget(states int) *Budget {
	b := &Budget{}
	b.left.Store(int64(states))
	return b
}

// take consumes one token, reporting false when the pool is exhausted.
// A single fetch-and-add with overshoot repair replaces a CAS retry
// loop: contended takers never spin, and a failed take restores the
// token it briefly over-drew. The counter can therefore dip negative
// transiently, but only by the number of concurrently failing takers —
// a take succeeds only when the pre-decrement value was positive, so
// the pool never over-grants. The visited table takes a token under the
// claiming shard's lock, after it has found the state absent, so every
// granted token is spent on a recorded state and none is handed back.
func (b *Budget) take() bool {
	if b == nil {
		return true
	}
	if b.left.Add(-1) < 0 {
		b.left.Add(1)
		return false
	}
	return true
}

// Remaining returns the tokens left in the pool (0 when exhausted; the
// raw counter may be transiently negative mid-repair).
func (b *Budget) Remaining() int {
	if n := b.left.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// Cancel is a cooperative cancellation flag shared by several checking
// runs. Once set, every participating run stops expanding, marks its
// result truncated and returns what it has — the campaign-level
// "stop everything at the first violation" switch.
type Cancel struct {
	flag atomic.Bool
}

// Cancel sets the flag.
func (c *Cancel) Cancel() { c.flag.Store(true) }

// Cancelled reports whether the flag is set. A nil receiver is never
// cancelled.
func (c *Cancel) Cancelled() bool { return c != nil && c.flag.Load() }

// visitedSet is the deduplication structure every driver shares: the
// lock-striped open-addressing fingerprint table of vtable.go, holding
// for each state its collapsed key (model.World.AppendKey, or
// AppendCanonicalKey: one interned piece id per component — machine,
// inbox, globals, timers — under the set's one model.Interner) and the
// shallowest depth at which it was discovered. The fingerprint is the
// key's content hash, a fold over the pieces' hash64 digests: unseeded
// and independent of interning order, so fingerprints, and with them
// each state's shard and home slot and the table's size and growth,
// repeat run to run and at any worker count.
//
// Min-depth tracking is what makes bounded exploration deterministic:
// a state first reached through a long path is re-expanded if a
// shorter path to it is found later, so the set of states expanded
// within MaxDepth is a fixpoint — every state whose true minimal depth
// is below the bound — independent of exploration order or worker
// interleaving. (Plain first-visit marking makes the truncated frontier
// depend on discovery order.) The layered engine finishes a depth
// before starting the next, so its first visit is already the
// shallowest and it never re-expands; runDFS does.
//
// The table stores every state's key in an append-only arena and
// resolves fingerprint matches against it, so distinct states are
// never merged: under one interner equal keys mean equal encodings.
// Paranoid mode turns a fingerprint collision into an error instead of
// probing past it (the hashing-scheme validation used by
// FuzzStateHash).
type visitedSet struct {
	// canon keys states by the symmetry-canonical components
	// (model.World.AppendCanonicalKey) instead of the plain ones —
	// Options.Symmetry under DFS/BFS. Every engine sharing the set then
	// dedups permutation-equivalent states into one entry.
	canon bool
	in    *model.Interner
	table *visitedTable
}

func newVisitedSet(opt Options) *visitedSet {
	return &visitedSet{
		canon: opt.Symmetry && (opt.Strategy == DFS || opt.Strategy == BFS),
		in:    model.NewInterner(),
		table: newVisitedTable(opt.Paranoid, int64(opt.MaxStates), opt.Budget, vtMinSlots),
	}
}

// size returns the number of distinct states recorded.
func (v *visitedSet) size() int { return v.table.size() }

// stats scans the final table; call after the run has quiesced.
func (v *visitedSet) stats() *VisitedStats {
	s := v.table.stats()
	s.Components = v.in.Len()
	return s
}

// markResult reports the outcome of recording one state.
type markResult struct {
	// isNew: the state had never been seen.
	isNew bool
	// expand: the caller should (re-)expand the state — it is new, or
	// it was rediscovered strictly shallower than every earlier visit.
	expand bool
	// capped: the state was new but MaxStates or the shared Budget is
	// exhausted; it was not recorded and the run is truncated.
	capped bool
}

// markVisited records the world at the given depth, using buf as key
// scratch (pass the previous call's return to avoid reallocating). In
// paranoid mode a fingerprint hit is verified against the stored key
// and a genuine collision is an error.
func markVisited(v *visitedSet, w *model.World, depth int, buf []byte) (markResult, []byte, error) {
	var h uint64
	if v.canon {
		h, buf = w.AppendCanonicalKey(v.in, buf)
	} else {
		h, buf = w.AppendKey(v.in, buf)
	}
	m, err := v.table.mark(h, buf, depth)
	return m, buf, err
}

// SortViolations orders violations canonically — by property, then
// description, then path length, then the rendered path — so results
// are stable regardless of discovery order. Each path is rendered at
// most once per sort.
func SortViolations(vs []Violation) {
	sort.Stable(&violationOrder{vs: vs, rendered: make([]string, len(vs))})
}

// violationOrder is SortViolations' sort.Interface: the violations with
// their rendered paths alongside, each filled on first comparison and
// swapped with its violation.
type violationOrder struct {
	vs       []Violation
	rendered []string
}

func (o *violationOrder) Len() int { return len(o.vs) }

func (o *violationOrder) Swap(i, j int) {
	o.vs[i], o.vs[j] = o.vs[j], o.vs[i]
	o.rendered[i], o.rendered[j] = o.rendered[j], o.rendered[i]
}

func (o *violationOrder) Less(i, j int) bool {
	a, b := &o.vs[i], &o.vs[j]
	if a.Property != b.Property {
		return a.Property < b.Property
	}
	if a.Desc != b.Desc {
		return a.Desc < b.Desc
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return o.render(i) < o.render(j)
}

func (o *violationOrder) render(i int) string {
	if o.rendered[i] == "" { // an empty path renders as "" again, for free
		o.rendered[i] = renderPath(o.vs[i].Path)
	}
	return o.rendered[i]
}

// PathLess reports whether counterexample path a precedes b in the
// canonical order, for two violations of one (property, description)
// pair: the shorter path first, then the smaller rendered path.
// DedupeViolations keeps the least path of each pair under it.
func PathLess(a, b []model.Step) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return renderPath(a) < renderPath(b)
}

func renderPath(path []model.Step) string {
	var b strings.Builder
	for _, st := range path {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DedupeViolations canonically sorts the violations and collapses
// duplicate (property, description) pairs to the smallest
// counterexample, in place; it returns the deduplicated prefix. The
// scenario fuzzer (internal/fuzz) reports its violation sets through it
// so they compare directly with the checker's.
func DedupeViolations(vs []Violation) []Violation {
	SortViolations(vs)
	out := vs[:0]
	for _, v := range vs {
		if len(out) > 0 && out[len(out)-1].Property == v.Property && out[len(out)-1].Desc == v.Desc {
			continue
		}
		out = append(out, v)
	}
	return out
}
