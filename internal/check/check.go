// Package check implements the screening phase of CNetVerifier (§3.2):
// an explicit-state model checker over internal/model worlds.
//
// The checker interleaves all enabled steps of the protocol processes
// (message deliveries, lossy drops, out-of-order deliveries) with
// environment events offered by a Scenario (user demands and operator
// responses, §3.2.1), checks the cellular-oriented properties after
// every step (§3.2.2), and reports each violation with the transition
// path that reached it — the counterexample handed to the validation
// phase (§3.2.3).
//
// Three exploration strategies are provided, each a frontier driver
// over the one expansion kernel of kernel.go:
//
//   - DFS: bounded-depth depth-first search with visited-state
//     deduplication (the default; mirrors Spin's search; dfs.go).
//   - BFS: level-synchronous breadth-first search (parallel.go),
//     producing shortest counterexamples and expanding every state
//     exactly once. Options.Workers > 1 always searches this way.
//   - RandomWalk: seeded random schedule sampling, the paper's approach
//     for scenario spaces too large to enumerate (walk.go).
package check

import (
	"fmt"

	"cnetverifier/internal/model"
)

// Property is a cellular-oriented correctness property (§3.2.2)
// evaluated as a monitor over world states.
type Property interface {
	// Name identifies the property (e.g. "PacketService_OK").
	Name() string
	// Check inspects the world after last was applied. It returns a
	// non-empty description when the state violates the property.
	Check(w *model.World, last model.Step) string
}

// Scenario offers candidate environment events for a world (§3.2.1
// usage-scenario modeling). Implementations must be deterministic
// functions of the world state so DFS/BFS remain sound; RandomWalk may
// be paired with stochastic scenarios, which declare themselves
// (Stochastic) so the layered search can refuse them.
type Scenario interface {
	Events(w *model.World) []model.EnvEvent
}

// ScenarioFunc adapts a function to the Scenario interface.
type ScenarioFunc func(w *model.World) []model.EnvEvent

// Events implements Scenario.
func (f ScenarioFunc) Events(w *model.World) []model.EnvEvent { return f(w) }

// StaticScenario offers the same events in every state: the scenario of
// every standard screening world. Events returns the list itself, so an
// expansion costs no allocation; callers must not modify it.
type StaticScenario []model.EnvEvent

// Events implements Scenario.
func (s StaticScenario) Events(*model.World) []model.EnvEvent { return s }

// Strategy selects the exploration order.
type Strategy uint8

const (
	// DFS explores depth-first (default).
	DFS Strategy = iota
	// BFS explores breadth-first, yielding shortest counterexamples.
	BFS
	// RandomWalk samples random maximal schedules.
	RandomWalk
)

func (s Strategy) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	case RandomWalk:
		return "random-walk"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Options bounds and configures a checking run. Whether a run is timed
// is a property of the world, not an option: on a world with
// virtual-time timers (model.World.EnableTiming) the model's
// StepsAppend includes StepTimer transitions, with the zone-abstracted
// windows in the state encoding, so every engine, POR cluster
// projection and symmetry quotient enumerates the admissible
// expiry-vs-delivery orderings as ordinary steps.
type Options struct {
	// Strategy selects DFS (default), BFS or RandomWalk. DFS and BFS
	// visit the same states and report the same violation set; they
	// differ in order — and so in Transitions (DFS re-expands a state
	// it later reaches by a shorter path), MaxDepth, Truncated and
	// counterexample length. With Workers > 1 both run the
	// breadth-first layered engine.
	Strategy Strategy
	// MaxDepth bounds the length of explored paths (default 64, at
	// most 65535: the visited table keeps each state's minimal depth
	// in 16 bits, and Run refuses a larger bound).
	MaxDepth int
	// MaxStates bounds the number of distinct states visited
	// (default 1 << 20).
	MaxStates int
	// StopAtFirst stops the entire run at the first violation.
	StopAtFirst bool
	// SkipLint disables the pre-screening structural lint
	// (internal/lint). By default Run refuses to explore a world whose
	// lint report carries error-severity findings — exploring a
	// structurally broken world silently shrinks the state space and
	// can mask real property violations.
	SkipLint bool
	// LintSuppress disables individual lint rules per process name
	// during the pre-screening gate (key "*" disables a rule
	// everywhere); values are rule IDs like "MSG003". Scoped worlds
	// that deliberately project away a layer use this instead of
	// SkipLint so every other rule still gates.
	LintSuppress map[string][]string
	// Paranoid fails on any fingerprint collision in the visited table
	// instead of resolving it against the stored key — used by tests to
	// validate the hashing scheme.
	Paranoid bool
	// Walks and Seed configure RandomWalk: number of schedules sampled
	// and the RNG seed (defaults 1000 and 1). Each walk derives its own
	// RNG stream from (Seed, walk index), so the sampled schedule set —
	// and therefore the violation set — is identical however the walks
	// are scheduled across workers.
	Walks int
	Seed  int64
	// Workers sets the number of exploration goroutines. 0 or 1 runs
	// sequentially; >1 runs the layered breadth-first search on that
	// many workers (DFS or BFS, whichever is asked for) or splits the
	// walks (RandomWalk). A layered run reports exactly what Strategy
	// BFS with one worker reports, counts included (the determinism
	// contract in kernel.go says what is exact and what is not);
	// counterexample paths are re-verified with Replay before being
	// reported.
	Workers int
	// POR enables independence-powered partial-order reduction for the
	// DFS/BFS strategies (RandomWalk ignores it: sampled schedules are
	// not an interleaving fixpoint). The static effect analysis
	// (internal/lint/effects) partitions the world's processes into
	// clusters that share no globals and exchange no messages; the
	// checker then explores each cluster's projection (model.World.
	// Project) instead of their product, cutting visited states from
	// the product of the cluster sizes to their sum. When the analysis
	// finds a single cluster the run is identical to POR off.
	//
	// Soundness assumptions, both documented in DESIGN.md: the scenario
	// offers a state-independent event set (true of every registry
	// scenario), and each property reads only globals written within
	// one cluster (true of every props.* property). The violation set —
	// the (property, description) pairs — is then exactly the full
	// product's; counterexample paths are cluster-local and replay
	// against the cluster's projection.
	POR bool
	// Symmetry enables replica-symmetry reduction for the DFS/BFS
	// strategies (RandomWalk ignores it, like POR: sampled schedules are
	// not a dedup fixpoint to quotient). The visited set keys states by
	// model.World.AppendCanonicalKey instead of AppendKey: per the
	// world's Symmetry descriptor, the interned per-replica sub-encodings
	// are sorted by content hash within each group, so all n!
	// permutations of an n-replica state share one visited entry and the
	// exploration walks the quotient. A world without a descriptor is
	// unaffected (the canonical key degenerates to the plain one).
	//
	// Replica-labeled properties (e.g. props.DataServiceOKIn("ue2")) can
	// fire on permuted twins the quotient prunes, so Run closes the
	// violation set under the declared permutations afterwards
	// (symmetrizeViolations): the reported (property, description) set
	// equals the plain run's exactly — see DESIGN.md for the soundness
	// argument and its assumptions (equivariant scenario and monitors).
	//
	// Composes with POR: cluster projections carry the filtered
	// descriptor and canonicalize within each cluster, and the closure
	// runs once at the top level over the full world's descriptor.
	Symmetry bool
	// Budget optionally shares a pool of distinct-state tokens across
	// several runs (a screening campaign's global bound). When the pool
	// dries up the run truncates, exactly like MaxStates.
	Budget *Budget
	// Cancel optionally aborts the run cooperatively from outside (or
	// from a sibling run in a campaign). A cancelled run returns its
	// partial result with Truncated set.
	Cancel *Cancel
}

// IsZero reports whether the options are entirely unset. Callers use
// the zero value to mean "use suggested defaults"; the LintSuppress map
// makes Options non-comparable, so == is not available for this.
func (o Options) IsZero() bool {
	return o.Strategy == DFS && o.MaxDepth == 0 && o.MaxStates == 0 &&
		!o.StopAtFirst && !o.Paranoid && !o.SkipLint && o.LintSuppress == nil &&
		o.Walks == 0 && o.Seed == 0 && !o.POR && !o.Symmetry &&
		o.Workers == 0 && o.Budget == nil && o.Cancel == nil
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 64
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1 << 20
	}
	if o.Walks == 0 {
		o.Walks = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Violation is one property violation with its counterexample.
type Violation struct {
	// Property names the violated property.
	Property string
	// Desc describes the violating state.
	Desc string
	// Path is the step sequence from the initial state to the
	// violation (the counterexample, §3.2.3).
	Path []model.Step
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violated after %d steps: %s", v.Property, len(v.Path), v.Desc)
}

// Result summarizes a checking run.
type Result struct {
	// States counts distinct states visited (by key).
	States int
	// Transitions counts steps applied. The layered engine (BFS, or
	// Workers > 1) expands every state once, so the count is the same
	// at every worker count; sequential DFS also counts its min-depth
	// re-expansions.
	Transitions int
	// MaxDepth is the deepest path length reached: under the layered
	// engine the depth of the last non-empty layer (the largest minimal
	// depth of any state), under DFS the longest path walked.
	MaxDepth int
	// MaxFrontier is the widest layer of the layered engine, in states
	// awaiting expansion (0 under DFS and RandomWalk); POR runs report
	// their widest cluster's. Like Transitions it is the same at every
	// worker count unless MaxStates, a Budget, StopAtFirst or Cancel
	// cut the run short.
	MaxFrontier int
	// Truncated reports whether the exploration was cut short: a path
	// reached Options.MaxDepth with states still to expand, MaxStates
	// or the Budget refused a state, or Cancel fired. The layered
	// engine reaches the depth bound only when a state's minimal depth
	// does; DFS also when it merely walks a long path to it.
	Truncated bool
	// Violations holds one entry per distinct (property, description)
	// pair, each with a replayable counterexample. Sequential runs list
	// them in discovery order; parallel runs (Workers > 1) in canonical
	// order (property, description, path length, path). The set of
	// entries, and under the layered engine each entry's path length,
	// is deterministic for a given world+options; which of several
	// equally short paths is reported may differ between parallel runs
	// (whichever worker reached the violating state first), but it is
	// always re-verified with Replay before being reported.
	Violations []Violation
	// Covered counts, per "proc/transition-label", how often each
	// protocol transition fired during exploration — the model-side
	// coverage metric (a transition never exercised means the scenario
	// space misses part of the spec).
	Covered map[string]int
	// Misrouted and Dropped count messages lost while applying steps:
	// sends to a process absent from the (scoped) world and sends
	// discarded at a full inbox (model.Stats). Like Transitions they
	// tally work: once per application of the losing step, so DFS
	// counts a re-expanded state's losses again.
	Misrouted int
	Dropped   int
	// Visited describes the visited table after the run — occupancy,
	// probe-length histogram, key bytes, interned components (see
	// VisitedStats). Live, Slots, Grows and — without Symmetry, whose
	// workers intern whichever orbit member they claim first —
	// Components repeat at any worker count; key bytes and probe
	// displacements do not.
	Visited *VisitedStats
}

// Violated reports whether the named property was violated.
func (r *Result) Violated(property string) bool {
	for _, v := range r.Violations {
		if v.Property == property {
			return true
		}
	}
	return false
}

// ViolationsOf returns all violations of the named property.
func (r *Result) ViolationsOf(property string) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Property == property {
			out = append(out, v)
		}
	}
	return out
}

// violKey identifies a distinct violation. A comparable struct key —
// not a concatenated string — so the per-transition duplicate check in
// engine.checkProps is allocation-free.
type violKey struct {
	prop, desc string
}

// Run explores the world from its current state under the scenario and
// returns the checking result. The input world is not mutated.
func Run(w *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if opt.MaxDepth > vtDepthMax {
		return nil, fmt.Errorf("check: MaxDepth %d exceeds the visited table's depth limit %d", opt.MaxDepth, vtDepthMax)
	}
	if sc == nil {
		sc = ScenarioFunc(func(*model.World) []model.EnvEvent { return nil })
	}
	if !opt.SkipLint {
		if err := prescreen(w, sc, opt.LintSuppress); err != nil {
			return nil, err
		}
	}
	var res *Result
	var err error
	if opt.POR && (opt.Strategy == DFS || opt.Strategy == BFS) {
		res, err = runPOR(w, props, sc, opt)
	} else {
		res, err = dispatch(w, props, sc, opt)
	}
	if err != nil {
		return nil, err
	}
	if opt.Symmetry && (opt.Strategy == DFS || opt.Strategy == BFS) {
		// Close the violation set under the world's replica permutations:
		// the quotient search visits one representative per orbit, so a
		// replica-labeled property may have fired only on the
		// representative's labeling. Runs once here, over the full
		// world's descriptor, whether the states came from the plain
		// engines or from POR cluster projections.
		symmetrizeViolations(res, w.Symmetry())
	}
	return res, nil
}

// dispatch runs an already-defaulted, already-prescreened search on the
// exploration kernel (kernel.go) under the frontier driver the options
// select: sequential DFS on the depth-first stack; BFS, and either
// search strategy on more than one worker, on the layered frontier,
// which refuses a Stochastic scenario (path.go); RandomWalk on none.
func dispatch(w *model.World, props []Property, sc Scenario, opt Options) (*Result, error) {
	if opt.Strategy > RandomWalk {
		return nil, fmt.Errorf("check: unknown strategy %v", opt.Strategy)
	}
	layered := opt.Strategy == BFS || opt.Strategy == DFS && opt.Workers > 1
	if layered && isStochastic(sc) {
		return nil, ErrStochasticScenario
	}
	e, workers, err := newEngine(w, props, sc, opt)
	if err != nil {
		return nil, err
	}
	switch {
	case opt.Strategy == RandomWalk:
		runWalks(e, workers)
	case layered:
		runLayered(e, workers)
	default:
		runDFS(e, workers[0])
	}
	return e.finish(workers)
}

// Replay applies a counterexample path to a fresh world, returning the
// resulting world. It is the bridge to the validation phase: the same
// step sequence can then be reproduced on the emulator.
func Replay(w *model.World, path []model.Step) (*model.World, error) {
	r := w.Clone()
	for i, s := range path {
		if _, err := r.Apply(s); err != nil {
			return nil, fmt.Errorf("check: replay step %d (%v): %w", i, s, err)
		}
	}
	return r, nil
}

// FormatCounterexample renders a violation's path as a numbered,
// human-readable trace.
func FormatCounterexample(v Violation) string {
	s := fmt.Sprintf("counterexample for %s (%s):\n", v.Property, v.Desc)
	for i, st := range v.Path {
		s += fmt.Sprintf("  %2d. %s\n", i+1, st)
		for _, note := range st.Notes {
			s += fmt.Sprintf("      | %s\n", note)
		}
	}
	return s
}

// SpecCoverage reports, per process, the fraction of its spec's
// transitions that fired at least once during the run, with the list of
// transitions never exercised. It is the verification-coverage view of
// a screening run: unexercised defect transitions mean the scenario
// space cannot reach them.
func SpecCoverage(w *model.World, res *Result) map[string]CoverageReport {
	out := make(map[string]CoverageReport, len(w.Procs))
	for _, p := range w.Procs {
		spec := p.M.Spec()
		rep := CoverageReport{Total: len(spec.Transitions)}
		for _, t := range spec.Transitions {
			if res.Covered[p.Name+"/"+t.Name] > 0 {
				rep.Fired++
			} else {
				rep.Missed = append(rep.Missed, t.Name)
			}
		}
		out[p.Name] = rep
	}
	return out
}

// CoverageReport summarizes one process's transition coverage.
type CoverageReport struct {
	// Fired and Total count spec transitions exercised vs declared.
	Fired, Total int
	// Missed lists the transition labels never exercised.
	Missed []string
}

// Fraction returns Fired/Total (1 for an empty spec).
func (c CoverageReport) Fraction() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Fired) / float64(c.Total)
}
