package core

import (
	"errors"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/names"
)

// Random-walk screening over the full combined model (the paper's
// §3.2.1 methodology) must surface violations of several properties in
// one sweep.
func TestFullWorldRandomWalkFindsFindings(t *testing.T) {
	s := FullWorld(FullConfig{
		SwitchOpt:     names.SwitchReselect,
		LossyAir:      true,
		SampleSeed:    1,
		SamplePerStep: 5,
	})
	opt := s.Options
	opt.MaxDepth = 48
	opt.Walks = 2000
	r, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, v := range r.Result.Violations {
		found[v.Property] = true
	}
	// At minimum the HOL blocking (S4) and an out-of-service detach
	// (S1/S2/S6 class) must appear; the stuck-in-3G (S3) requires the
	// rarer dial→hangup→... sequence but is regularly sampled too.
	if !found["CallService_OK"] && !found["DataService_OK"] {
		t.Errorf("random walk missed the S4 class: %v", found)
	}
	if !found["PacketService_OK"] {
		t.Errorf("random walk missed the S1/S2/S6 class: %v", found)
	}
	if len(found) < 2 {
		t.Fatalf("only %d properties violated: %v", len(found), found)
	}
	t.Logf("violated properties: %v (states=%d transitions=%d)", found, r.Result.States, r.Result.Transitions)
}

// The fully fixed combined model holds every property over the same
// sampled scenario space.
func TestFullWorldFixedCleanUnderSampling(t *testing.T) {
	s := FullWorld(FullConfig{
		Fixed:         true,
		SwitchOpt:     names.SwitchReselect,
		LossyAir:      false, // the reliable shim's guarantee (§8)
		SampleSeed:    1,
		SamplePerStep: 5,
	})
	opt := s.Options
	opt.Walks = 400
	r, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violated() {
		for _, v := range r.Result.Violations {
			t.Errorf("fixed full world violates %s: %s", v.Property, v.Desc)
			t.Log(check.FormatCounterexample(v))
		}
	}
}

// Bounded exhaustive exploration of the full world stays sound: no
// apply errors, dedup effective, and depth bounded.
func TestFullWorldBoundedDFS(t *testing.T) {
	s := FullWorld(FullConfig{SwitchOpt: names.SwitchRedirect})
	opt := check.Options{Strategy: check.DFS, MaxDepth: 6, MaxStates: 30000}
	r, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.States == 0 || r.Result.Transitions == 0 {
		t.Fatal("no exploration happened")
	}
	if r.Result.MaxDepth > 6 {
		t.Fatalf("depth bound exceeded: %d", r.Result.MaxDepth)
	}
}

// The layered search rebuilds counterexamples by replaying step
// indices, which the sampler's RNG cannot reproduce: BFS, and DFS on
// two workers, refuse the sampled full world (timed too) with the named
// error, while random walks over it run as before.
func TestFullWorldSampledRefusedByLayeredSearch(t *testing.T) {
	s := FullWorld(FullConfig{SwitchOpt: names.SwitchReselect, SampleSeed: 1, SamplePerStep: 5})
	timed, err := WithTiming(s, TimingNAS)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scoped{s, timed} {
		for _, opt := range []check.Options{{Strategy: check.BFS}, {Strategy: check.DFS, Workers: 2}} {
			opt.MaxDepth = 4
			if _, err := Screen(sc, opt); !errors.Is(err, check.ErrStochasticScenario) {
				t.Errorf("%v at %d workers: err = %v, want check.ErrStochasticScenario", opt.Strategy, opt.Workers, err)
			}
		}
	}
	opt := s.Options
	opt.Walks = 20
	if _, err := Screen(s, opt); err != nil {
		t.Errorf("random walks over the sampled world: %v", err)
	}
}
