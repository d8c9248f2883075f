package core

import (
	"reflect"
	"testing"

	"cnetverifier/internal/check"
)

// TestSymReduction is the reduction gate: on the shared-core world the
// effect analysis sees one connected cluster (POR alone buys nothing),
// while canonicalization still collapses the replica permutations —
// close to n! for the 3-UE world. On the independent world symmetry
// composes with POR: por+sym explores no more than por alone.
func TestSymReduction(t *testing.T) {
	n := 3
	if raceEnabled {
		n = 2 // instrumented screens of the 34³ product would blow the package timeout
	}
	plain := screenCell(t, MultiUEWorldShared(n, false), reduction{}, registry)
	por := screenCell(t, MultiUEWorldShared(n, false), reduction{por: true}, registry)
	sym := screenCell(t, MultiUEWorldShared(n, false), reduction{sym: true}, registry)
	if por.States != plain.States {
		t.Errorf("shared-core world decomposed by POR: por=%d plain=%d states (want equal: single cluster)",
			por.States, plain.States)
	}
	// Measured ratios sit just under n! (orbits with nontrivial
	// stabilizers): 5.5x at n=3, 1.9x at n=2.
	minRatio := 4.0
	if n == 2 {
		minRatio = 1.5
	}
	if float64(sym.States)*minRatio > float64(plain.States) {
		t.Errorf("symmetry reduction below %.1fx on shared %d-UE world: sym=%d plain=%d (%.1fx)",
			minRatio, n, sym.States, plain.States, float64(plain.States)/float64(sym.States))
	}
	t.Logf("shared %d-UE states: plain=%d por=%d sym=%d (%.1fx)",
		n, plain.States, por.States, sym.States, float64(plain.States)/float64(sym.States))

	iPor := screenCell(t, MultiUEWorld(n, false), reduction{por: true}, registry)
	iBoth := screenCell(t, MultiUEWorld(n, false), reduction{por: true, sym: true}, registry)
	if iBoth.States > iPor.States {
		t.Errorf("por+sym explored more than por alone: %d > %d", iBoth.States, iPor.States)
	}
	if got, want := violationSet(iBoth), violationSet(iPor); !reflect.DeepEqual(got, want) {
		t.Errorf("por+sym changes the violation set:\n  got:  %q\n  want: %q", got, want)
	}
}

// TestSymNoDescriptorIdentity pins the degenerate case: on a world
// without a symmetry descriptor (or with single-replica groups only),
// Options.Symmetry must leave the semantic Result bit-identical — the
// canonical closure is a no-op on the state graph. Only the visited
// table's byte diagnostics (Result.Visited) are exempt: the canonical
// encoder frames replica groups differently even when it permutes
// nothing, so arena byte counts legitimately differ while states,
// violations and coverage do not.
func TestSymNoDescriptorIdentity(t *testing.T) {
	stripDiag := func(r *check.Result) *check.Result {
		c := *r
		c.Visited = nil
		return &c
	}
	plain := screenCell(t, S1World(false), reduction{}, registry)
	sym := screenCell(t, S1World(false), reduction{sym: true}, registry)
	if !reflect.DeepEqual(stripDiag(plain), stripDiag(sym)) {
		t.Errorf("Symmetry changed the run on a descriptor-less world:\nplain: %+v\nsym:   %+v", plain, sym)
	}
	p1 := screenCell(t, MultiUEWorldShared(1, false), reduction{}, registry)
	s1 := screenCell(t, MultiUEWorldShared(1, false), reduction{sym: true}, registry)
	if !reflect.DeepEqual(stripDiag(p1), stripDiag(s1)) {
		t.Errorf("Symmetry changed the run on a single-replica world")
	}
}

// TestSymRandomWalkIgnored pins that RandomWalk ignores Symmetry, like
// POR: sampled schedules have no visited set to canonicalize, and the
// walk's violations already carry the labels the walk saw.
func TestSymRandomWalkIgnored(t *testing.T) {
	sc := MultiUEWorldShared(2, false)
	opt := sc.Options
	opt.Strategy = check.RandomWalk
	opt.Walks = 50
	base, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Symmetry = true
	sym, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, sym) {
		t.Errorf("Symmetry changed a RandomWalk run")
	}
}
