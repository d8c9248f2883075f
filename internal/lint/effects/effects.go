// Package effects is the static effect analysis behind CNetVerifier's
// partial-order reduction (check.Options.POR) and the cross-layer
// interaction lint rules (lint EFF001–EFF003).
//
// For every transition edge of every spec it extracts an effect set —
// globals read and written, messages sent per (system, domain, proto)
// channel, cross-layer outputs, machines touched — by probing the
// opaque guard/action closures with a recording fsm.Ctx (internal/lint's
// message-flow, variable and guard-overlap passes read the same
// summaries, so a spec is probed once). Because namespaced specs
// (fsm.NamespaceGlobals) rewrite globals on the live context, probing
// them yields namespace-resolved effect sets with no extra work.
//
// From the summaries the analysis derives, once per world rather than
// per state:
//
//   - a conservative may-interact relation between transition pairs,
//     exported as an interned bit matrix keyed by the checker's slab
//     indices (process index, transition index);
//   - its process-level projection and the resulting independence
//     clusters (connected components), which the checker's POR mode
//     uses to explore a decomposed world cluster-by-cluster;
//   - the cross-layer interaction graph — which layer's sends feed
//     which layer's guards — rendered as DOT by cnetlint -graph.
//
// Facts gathered by probing are existential and therefore one-sided: a
// send hidden behind an unprobed branch is missed, never invented. For
// the may-interact relation that direction is the dangerous one, so
// the relation additionally treats a probe panic as "may touch
// anything" — an edge whose closures could not be summarized is never
// declared independent of anything.
package effects

import (
	"fmt"
	"sort"
	"strings"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// probeDefaults are the constant values every variable takes during one
// probe run: the small enums that guards compare against (types.System
// 0/1/2, names.Switch* 0/1/2, booleans) plus the modulation orders of
// S5 (16QAM/64QAM).
var probeDefaults = []int{0, 1, 2, 3, 16, 64}

// ChannelRef identifies one message flow out of an edge: the addressed
// process and the (system, domain, proto) channel the message travels
// on, as stamped by types.NewMessage. Output marks delivery over the
// co-located cross-layer interface rather than a Send; spec-level
// analysis leaves To empty for outputs (targets are world wiring).
type ChannelRef struct {
	To     string
	Kind   types.MsgKind
	System types.System
	Domain types.Domain
	Proto  types.Protocol
	Output bool
}

func (c ChannelRef) String() string {
	via := "send"
	if c.Output {
		via = "output"
	}
	to := c.To
	if to == "" {
		to = "?"
	}
	return fmt.Sprintf("%s %s to %s on %s/%s/%s", via, c.Kind, to, c.System, c.Domain, c.Proto)
}

// channelLess is the canonical ChannelRef order.
func channelLess(a, b ChannelRef) bool {
	if a.Output != b.Output {
		return !a.Output
	}
	if a.To != b.To {
		return a.To < b.To
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.System != b.System {
		return a.System < b.System
	}
	return a.Domain < b.Domain
}

// EdgeEffects is the effect summary of one transition edge (one row of
// a spec's transition table; wildcard sources count as one edge, the
// unit the checker's coverage slabs use).
type EdgeEffects struct {
	// Transition and Index locate the edge in its spec's table.
	Transition string
	Index      int
	From, To   fsm.State
	On         types.MsgKind
	// Reads/Writes are the "g."-prefixed globals the guard or action
	// touched under some probe (namespace-resolved for namespaced
	// specs). LocalReads/LocalWrites are the machine-local accesses.
	Reads, Writes           []string
	LocalReads, LocalWrites []string
	// Sends lists recorded Ctx.Send flows; Outputs lists Ctx.Output
	// flows (To empty until resolved against a world's OutputTo).
	Sends, Outputs []ChannelRef
	// GuardHolds lists the probe defaults under which the guard returned
	// true (every probe default for an unguarded edge; a probe the guard
	// panicked under does not count).
	GuardHolds []int
	// Panicked reports that the guard or action panicked under at
	// least one probe. The edge is still summarized exactly once, with
	// the facts recorded before each panic merged in; consumers must
	// treat a panicked edge conservatively (it may do anything).
	Panicked bool
}

// GuardTrue reports that at least one probe satisfied the guard (always
// true for unguarded edges).
func (e EdgeEffects) GuardTrue() bool { return len(e.GuardHolds) > 0 }

// SpecEffects aggregates the per-edge summaries of one spec.
type SpecEffects struct {
	Spec *fsm.Spec
	// Edges is indexed like Spec.Transitions.
	Edges []EdgeEffects
	// Reads/Writes union the per-edge global accesses.
	Reads, Writes []string
	// Handles lists the message kinds the spec reacts to in some state.
	Handles []types.MsgKind
}

type specEffectsKey struct{}

// ForSpec probes every transition of the spec and returns its effect
// summaries, memoized on the spec itself (specs are built once and
// immutable, the same contract the fsm layout relies on).
func ForSpec(s *fsm.Spec) *SpecEffects {
	return s.Derived(specEffectsKey{}, func() any { return buildSpecEffects(s) }).(*SpecEffects)
}

func buildSpecEffects(s *fsm.Spec) *SpecEffects {
	se := &SpecEffects{Spec: s, Edges: make([]EdgeEffects, len(s.Transitions))}
	reads, writes := map[string]bool{}, map[string]bool{}
	handles := map[types.MsgKind]bool{}
	for i := range s.Transitions {
		e := probeEdge(s, i)
		se.Edges[i] = e
		for _, g := range e.Reads {
			reads[g] = true
		}
		for _, g := range e.Writes {
			writes[g] = true
		}
		handles[e.On] = true
	}
	se.Reads, se.Writes = sortedKeys(reads), sortedKeys(writes)
	se.Handles = sortedKinds(handles)
	return se
}

// recorder is the probing fsm.Ctx: Get returns the probe default unless
// an earlier Set in the same run assigned the name; every access and
// every message is logged with its full channel coordinates.
type recorder struct {
	def    int
	vals   map[string]int
	reads  map[string]bool
	writes map[string]bool
	sends  []ChannelRef
	outs   []ChannelRef
}

func newRecorder(def int) *recorder {
	return &recorder{
		def:    def,
		vals:   make(map[string]int),
		reads:  make(map[string]bool),
		writes: make(map[string]bool),
	}
}

func (r *recorder) Get(name string) int {
	r.reads[name] = true
	if v, ok := r.vals[name]; ok {
		return v
	}
	return r.def
}

func (r *recorder) Set(name string, v int) {
	r.writes[name] = true
	r.vals[name] = v
}

// GetI/SetI are only resolved by the machine wrapper; probes drive the
// closures through a bare recorder, so return the probe default and
// drop writes (slot names are unknown here).
func (r *recorder) GetI(int32) int32  { return int32(r.def) }
func (r *recorder) SetI(int32, int32) {}

func (r *recorder) Send(to string, msg types.Message) {
	r.sends = append(r.sends, ChannelRef{To: to, Kind: msg.Kind, System: msg.System, Domain: msg.Domain, Proto: msg.Proto})
}

func (r *recorder) Output(msg types.Message) {
	r.outs = append(r.outs, ChannelRef{Kind: msg.Kind, System: msg.System, Domain: msg.Domain, Proto: msg.Proto, Output: true})
}

func (r *recorder) Trace(string, ...any) {}

// safely runs f, converting a panic into ok=false.
func safely(f func()) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	f()
	return true
}

// probeEdge summarizes one transition under every probe default. Each
// edge is summarized exactly once, however many probes its guard or
// action panics under: a panic marks the summary and merges the facts
// the recorder captured before the panic, then the remaining probes
// still run. The action runs regardless of the guard verdict — the
// guard decides when the edge fires, not what it does, and the
// independence relation needs the action's effects even when no
// constant assignment satisfies the guard.
func probeEdge(s *fsm.Spec, i int) EdgeEffects {
	t := s.Transitions[i]
	e := EdgeEffects{Transition: t.Name, Index: i, From: t.From, To: t.To, On: t.On}
	reads, writes := map[string]bool{}, map[string]bool{}
	ev := fsm.Ev(t.On)
	for _, def := range probeDefaults {
		guardOK := true
		if t.Guard != nil {
			rec := newRecorder(def)
			ran := safely(func() { guardOK = t.Guard(rec, ev) })
			if !ran {
				e.Panicked = true
				guardOK = false
			}
			mergeAccess(reads, writes, rec)
		}
		if guardOK {
			e.GuardHolds = append(e.GuardHolds, def)
		}
		if t.Action != nil {
			rec := newRecorder(def)
			if !safely(func() { t.Action(rec, ev) }) {
				e.Panicked = true
			}
			mergeAccess(reads, writes, rec)
			e.Sends = append(e.Sends, rec.sends...)
			e.Outputs = append(e.Outputs, rec.outs...)
		}
	}
	e.Reads, e.LocalReads = splitGlobals(reads)
	e.Writes, e.LocalWrites = splitGlobals(writes)
	e.Sends = dedupChannels(e.Sends)
	e.Outputs = dedupChannels(e.Outputs)
	return e
}

func mergeAccess(reads, writes map[string]bool, rec *recorder) {
	for k := range rec.reads {
		reads[k] = true
	}
	for k := range rec.writes {
		writes[k] = true
	}
}

// isGlobalName mirrors the fsm engine's scoping rule: names with the
// "g." prefix resolve to world globals.
func isGlobalName(name string) bool {
	return len(name) > 2 && name[0] == 'g' && name[1] == '.'
}

func splitGlobals(set map[string]bool) (globals, locals []string) {
	for k := range set {
		if isGlobalName(k) {
			globals = append(globals, k)
		} else {
			locals = append(locals, k)
		}
	}
	sort.Strings(globals)
	sort.Strings(locals)
	return globals, locals
}

func dedupChannels(in []ChannelRef) []ChannelRef {
	seen := make(map[ChannelRef]bool, len(in))
	out := in[:0]
	for _, c := range in {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return channelLess(out[i], out[j]) })
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKinds(set map[types.MsgKind]bool) []types.MsgKind {
	out := make([]types.MsgKind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProcEffects binds a spec's effect summaries to a world process: the
// outputs are resolved against the process's OutputTo wiring, and the
// flows feed the world-level interaction analysis.
type ProcEffects struct {
	Proc string
	Spec *SpecEffects
	// Flows unions the process's sends and resolved outputs: one
	// ChannelRef per (target, kind, channel) with To always set.
	Flows []ChannelRef
}

// WorldEffects is the full static analysis of one composed world.
type WorldEffects struct {
	// Procs is indexed like the world's process table.
	Procs []*ProcEffects

	world *model.World

	// off[p] is the base of process p's edges in the interned edge-id
	// space (edge id = off[p] + transition index), nedges its size.
	off    []int
	nedges int
	// interact is the may-interact bit matrix over edge ids, row-major
	// (nedges rows of nedges bits, symmetric).
	interact []uint64
	// procMay is the process-level projection of the relation.
	procMay [][]bool
}

// Analyze probes every process of the world and computes the
// may-interact relation, its process-level projection and the
// interaction graph inputs. The world is only read, never mutated.
func Analyze(w *model.World) *WorldEffects {
	we := &WorldEffects{world: w, off: make([]int, len(w.Procs))}
	for i, p := range w.Procs {
		se := ForSpec(p.M.Spec())
		pe := &ProcEffects{Proc: p.Name, Spec: se}
		for _, e := range se.Edges {
			pe.Flows = append(pe.Flows, e.Sends...)
			for _, o := range e.Outputs {
				for _, dst := range p.OutputTo {
					o.To = dst
					pe.Flows = append(pe.Flows, o)
				}
			}
		}
		pe.Flows = dedupChannels(pe.Flows)
		we.Procs = append(we.Procs, pe)
		we.off[i] = we.nedges
		we.nedges += len(se.Edges)
	}
	we.buildMatrix()
	we.buildProcMay()
	return we
}

// ProcIndex resolves a process name to its index in Procs.
func (we *WorldEffects) ProcIndex(name string) (int, bool) {
	for i, pe := range we.Procs {
		if pe.Proc == name {
			return i, true
		}
	}
	return -1, false
}

// OutputTargets returns the OutputTo wiring of the process (the world's
// list, unfiltered).
func (we *WorldEffects) OutputTargets(proc int) []string {
	return we.world.Procs[proc].OutputTo
}

// EdgeID interns a (process index, transition index) pair — the same
// slab coordinates the checker's coverage counters use — into the
// dense edge-id space of the matrix.
func (we *WorldEffects) EdgeID(proc, trans int) int { return we.off[proc] + trans }

// NumEdges returns the size of the edge-id space.
func (we *WorldEffects) NumEdges() int { return we.nedges }

func (we *WorldEffects) bit(a, b int) int { return a*we.nedges + b }

func (we *WorldEffects) setInteract(a, b int) {
	i, j := we.bit(a, b), we.bit(b, a)
	we.interact[i/64] |= 1 << (i % 64)
	we.interact[j/64] |= 1 << (j % 64)
}

// MayInteract reports whether the two edges (by process and transition
// index) may interact: executing one can enable, disable or change the
// effect of the other. The relation is conservative (reflexively
// closed over each machine, panic-poisoned, probe-derived).
func (we *WorldEffects) MayInteract(proc1, trans1, proc2, trans2 int) bool {
	i := we.bit(we.EdgeID(proc1, trans1), we.EdgeID(proc2, trans2))
	return we.interact[i/64]&(1<<(i%64)) != 0
}

// Independent is the complement of MayInteract: the two edges commute —
// running them in either order reaches the same state.
func (we *WorldEffects) Independent(proc1, trans1, proc2, trans2 int) bool {
	return !we.MayInteract(proc1, trans1, proc2, trans2)
}

func (we *WorldEffects) buildMatrix() {
	words := (we.nedges*we.nedges + 63) / 64
	we.interact = make([]uint64, words)
	for p1 := range we.Procs {
		for p2 := p1; p2 < len(we.Procs); p2++ {
			we.pairwise(p1, p2)
		}
	}
}

// pairwise marks the interacting edge pairs between two processes
// (possibly the same one).
func (we *WorldEffects) pairwise(p1, p2 int) {
	a, b := we.Procs[p1], we.Procs[p2]
	for i, ea := range a.Spec.Edges {
		for j, eb := range b.Spec.Edges {
			if p1 == p2 && j < i {
				continue
			}
			if we.edgesInteract(p1, ea, p2, eb) {
				we.setInteract(we.EdgeID(p1, i), we.EdgeID(p2, j))
			}
		}
	}
}

func (we *WorldEffects) edgesInteract(p1 int, a EdgeEffects, p2 int, b EdgeEffects) bool {
	// Same machine: every pair conflicts on the control state.
	if p1 == p2 {
		return true
	}
	// A panicked edge could not be fully summarized: poison it.
	if a.Panicked || b.Panicked {
		return true
	}
	// Write-write or write-read/read-write overlap on a global.
	if overlap(a.Writes, b.Writes) || overlap(a.Writes, b.Reads) || overlap(b.Writes, a.Reads) {
		return true
	}
	// One edge's message feeds (or fills the inbox of) the other's
	// process, or both edges race on a common destination inbox.
	na, nb := we.Procs[p1].Proc, we.Procs[p2].Proc
	if we.flowsTouch(p1, a, nb) || we.flowsTouch(p2, b, na) {
		return true
	}
	return we.sharedDestination(p1, a, p2, b)
}

// flowsTouch reports whether the edge's sends or resolved outputs
// address the named process.
func (we *WorldEffects) flowsTouch(p int, e EdgeEffects, target string) bool {
	for _, s := range e.Sends {
		if s.To == target {
			return true
		}
	}
	if len(e.Outputs) > 0 {
		for _, dst := range we.world.Procs[p].OutputTo {
			if dst == target {
				return true
			}
		}
	}
	return false
}

// sharedDestination reports whether both edges enqueue into a common
// inbox (their sends race on queue order).
func (we *WorldEffects) sharedDestination(p1 int, a EdgeEffects, p2 int, b EdgeEffects) bool {
	dests := func(p int, e EdgeEffects) map[string]bool {
		out := make(map[string]bool, len(e.Sends))
		for _, s := range e.Sends {
			out[s.To] = true
		}
		if len(e.Outputs) > 0 {
			for _, dst := range we.world.Procs[p].OutputTo {
				out[dst] = true
			}
		}
		return out
	}
	da, db := dests(p1, a), dests(p2, b)
	for d := range da {
		if db[d] {
			return true
		}
	}
	return false
}

func overlap(a, b []string) bool {
	// Both slices are sorted; merge-walk.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// buildProcMay projects the edge relation onto processes: two distinct
// processes may interact when any of their edge pairs may.
func (we *WorldEffects) buildProcMay() {
	n := len(we.Procs)
	we.procMay = make([][]bool, n)
	for i := range we.procMay {
		we.procMay[i] = make([]bool, n)
	}
	for p1 := 0; p1 < n; p1++ {
		for p2 := p1 + 1; p2 < n; p2++ {
			for i := range we.Procs[p1].Spec.Edges {
				if we.procMay[p1][p2] {
					break
				}
				for j := range we.Procs[p2].Spec.Edges {
					if we.MayInteract(p1, i, p2, j) {
						we.procMay[p1][p2], we.procMay[p2][p1] = true, true
						break
					}
				}
			}
		}
	}
}

// ProcsMayInteract reports the process-level projection of the
// may-interact relation.
func (we *WorldEffects) ProcsMayInteract(p1, p2 int) bool {
	if p1 == p2 {
		return true
	}
	return we.procMay[p1][p2]
}

// Clusters returns the connected components of the process-level
// may-interact relation, each sorted by process index, ordered by
// their smallest member. Distinct clusters share no globals and
// exchange no messages: under a state-independent scenario the world's
// reachable states are exactly the product of the clusters' reachable
// states, which is what lets the checker's POR mode explore them
// separately (states visited drop from Π|Ci| to Σ|Ci|).
func (we *WorldEffects) Clusters() [][]int {
	n := len(we.Procs)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var clusters [][]int
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		id := len(clusters)
		stack := []int{i}
		comp[i] = id
		var members []int
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, p)
			for q := 0; q < n; q++ {
				if comp[q] < 0 && we.procMay[p][q] {
					comp[q] = id
					stack = append(stack, q)
				}
			}
		}
		sort.Ints(members)
		clusters = append(clusters, members)
	}
	return clusters
}

// ClusterNames maps Clusters' process indices to names.
func (we *WorldEffects) ClusterNames() [][]string {
	var out [][]string
	for _, cl := range we.Clusters() {
		names := make([]string, len(cl))
		for i, p := range cl {
			names[i] = we.Procs[p].Proc
		}
		out = append(out, names)
	}
	return out
}

// Text renders the world's effect summaries as a deterministic
// human-readable report (the cnetlint -effects output).
func (we *WorldEffects) Text() string {
	var b strings.Builder
	for _, pe := range we.Procs {
		fmt.Fprintf(&b, "process %s (%s)\n", pe.Proc, pe.Spec.Spec.Name)
		b.WriteString(indent(SpecText(pe.Spec)))
	}
	fmt.Fprintf(&b, "clusters:\n")
	for i, names := range we.ClusterNames() {
		fmt.Fprintf(&b, "  %d: %s\n", i, strings.Join(names, " "))
	}
	return b.String()
}

// SpecText renders one spec's effect summaries (the golden-file
// format of the lint effect-extraction tests).
func SpecText(se *SpecEffects) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s proto=%s edges=%d\n", se.Spec.Name, se.Spec.Proto, len(se.Edges))
	for _, e := range se.Edges {
		fmt.Fprintf(&b, "edge %d %s: %s --%s--> %s\n", e.Index, e.Transition, e.From, e.On, e.To)
		writeList(&b, "  reads:  ", e.Reads)
		writeList(&b, "  writes: ", e.Writes)
		writeList(&b, "  local reads:  ", e.LocalReads)
		writeList(&b, "  local writes: ", e.LocalWrites)
		for _, s := range e.Sends {
			fmt.Fprintf(&b, "  %s\n", s)
		}
		for _, o := range e.Outputs {
			fmt.Fprintf(&b, "  %s\n", o)
		}
		if !e.GuardTrue() {
			b.WriteString("  guard: unsatisfied under every probe\n")
		}
		if e.Panicked {
			b.WriteString("  panicked under some probe (summarized conservatively)\n")
		}
	}
	return b.String()
}

func writeList(b *strings.Builder, label string, items []string) {
	if len(items) == 0 {
		return
	}
	b.WriteString(label)
	b.WriteString(strings.Join(items, " "))
	b.WriteByte('\n')
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
