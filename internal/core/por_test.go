package core

import (
	"reflect"
	"sort"
	"testing"

	"cnetverifier/internal/check"
)

// violationSet canonicalizes a result's violations into the sorted
// (property, description) pairs — the checker's determinism contract
// for POR (counterexample paths are cluster-local under POR, so only
// the set is comparable).
func violationSet(res *check.Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, v.Property+"\x00"+v.Desc)
	}
	sort.Strings(out)
	return out
}

// TestPORSingleClusterIdentical pins the fall-through contract: on a
// world the effect analysis cannot decompose (the S1 stacks are
// coupled through g.sys/g.pdp/g.eps), POR is the identity — the full
// Result matches field for field, paths included.
func TestPORSingleClusterIdentical(t *testing.T) {
	plain := screenCell(t, S1World(false), reduction{}, registry)
	por := screenCell(t, S1World(false), reduction{por: true}, registry)
	if !reflect.DeepEqual(plain, por) {
		t.Errorf("single-cluster POR run differs from plain run:\nplain: %+v\npor:   %+v", plain, por)
	}
}

// TestPORMultiUEReduction is the ≥5× acceptance criterion: on the
// 3-UE world the cluster decomposition must find the same violations
// while visiting at least 5× fewer states.
func TestPORMultiUEReduction(t *testing.T) {
	plain := screenCell(t, MultiUEWorld(3, false), reduction{}, registry)
	por := screenCell(t, MultiUEWorld(3, false), reduction{por: true}, registry)

	if got, want := violationSet(por), violationSet(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("POR changes the 3-UE violation set:\n  por:   %q\n  plain: %q", got, want)
	}
	if len(por.Violations) != 3 {
		t.Errorf("3-UE defective world: got %d violations, want one S4 HOL violation per UE (3)", len(por.Violations))
	}
	// plain.Truncated is expected: the depth bound prunes revisiting
	// paths after the full product is already enumerated (the state
	// count below proves coverage: exactly per-UE-states cubed).
	if por.States*5 > plain.States {
		t.Errorf("POR reduction below 5x: por=%d states, plain=%d states (%.1fx)",
			por.States, plain.States, float64(plain.States)/float64(por.States))
	}
	// Each cluster run keeps its own visited table; the merged stats
	// still describe exact keys.
	if v := por.Visited; v == nil || v.ArenaBytes == 0 || v.Components == 0 {
		t.Errorf("merged POR visited stats carry no keys: %+v", v)
	}
	t.Logf("3-UE states: plain=%d por=%d (%.1fx), transitions: plain=%d por=%d",
		plain.States, por.States, float64(plain.States)/float64(por.States),
		plain.Transitions, por.Transitions)
}

// TestPORFixedMultiUEClean pins the fix side: with FixParallelUpdate
// the 3-UE world has no violations, under both engines.
func TestPORFixedMultiUEClean(t *testing.T) {
	for _, por := range []bool{false, true} {
		res := screenCell(t, MultiUEWorld(3, true), reduction{por: por}, registry)
		if len(res.Violations) != 0 {
			t.Errorf("fixed 3-UE world (por=%v): got %d violations, want 0", por, len(res.Violations))
		}
	}
}

// TestPORRandomWalkIgnored pins that RandomWalk ignores POR (sampled
// schedules are not an interleaving fixpoint to decompose).
func TestPORRandomWalkIgnored(t *testing.T) {
	sc := MultiUEWorld(2, false)
	opt := sc.Options
	opt.Strategy = check.RandomWalk
	opt.Walks = 50
	base, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.POR = true
	por, err := check.Run(sc.World, sc.Props, sc.Scenario, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, por) {
		t.Errorf("POR changed a RandomWalk run")
	}
}
