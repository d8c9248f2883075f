package validate

import (
	"runtime"
	"strings"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/netemu"
)

// screenFirst returns the first violation of a scoped world.
func screenFirst(t *testing.T, s core.Scoped) check.Violation {
	t.Helper()
	opt := s.Options
	opt.Strategy = check.BFS
	r, err := core.Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Result.Violations) == 0 {
		t.Fatalf("%s: no violation to validate", s.Finding)
	}
	return r.Result.Violations[0]
}

// The S1 counterexample discovered by the checker reproduces on the
// emulator — and does NOT reproduce when the §8 fixes are deployed.
func TestReplayS1(t *testing.T) {
	v := screenFirst(t, core.S1World(false))

	out, err := Replay(core.S1, v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatalf("S1 counterexample not reproduced: %s", out)
	}
	if out.EventCount < 3 {
		t.Fatalf("only %d env events replayed", out.EventCount)
	}
	if len(out.Trace) == 0 {
		t.Fatal("no validation trace collected")
	}
	if !strings.Contains(out.String(), "reproduced") {
		t.Fatalf("outcome string: %s", out)
	}

	fixed, err := Replay(core.S1, v, Config{Fixes: netemu.AllFixes()})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Reproduced {
		t.Fatal("S1 symptom reproduced on the fixed stack")
	}
}

// The S4 HOL counterexample reproduces: the call is delayed behind the
// location update on the emulator too.
func TestReplayS4(t *testing.T) {
	world := core.S4CSWorld(false)
	v := screenFirst(t, world)
	out, err := Replay(core.S4, v, Config{InitialGlobals: world.World.GlobalsMap()})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatalf("S4 counterexample not reproduced: %s", out)
	}
	fixed, err := Replay(core.S4, v, Config{Fixes: netemu.AllFixes(), InitialGlobals: world.World.GlobalsMap()})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Reproduced {
		t.Fatal("S4 symptom reproduced with parallel updates")
	}
}

// The S6 counterexample reproduces and the fix prevents it.
func TestReplayS6(t *testing.T) {
	v := screenFirst(t, core.S6World(false))
	out, err := Replay(core.S6, v, Config{Profile: profilePtr(netemu.OPI())})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatalf("S6 counterexample not reproduced: %s", out)
	}
	fixed, err := Replay(core.S6, v, Config{Fixes: netemu.AllFixes()})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Reproduced {
		t.Fatal("S6 symptom reproduced on the fixed stack")
	}
}

func profilePtr(p netemu.OperatorProfile) *netemu.OperatorProfile { return &p }

func TestReplayUnknownProperty(t *testing.T) {
	v := check.Violation{Property: "Nonsense_OK"}
	if _, err := Replay(core.S1, v, Config{}); err == nil {
		t.Fatal("unknown property accepted")
	}
}

// The full two-phase campaign: screen everything, validate every
// counterexample; the vast majority must reproduce. (S2's loss/reorder
// interleavings are inherently timing-dependent — the paper itself
// could not validate S2 over the air, §3.1 — so the campaign tolerates
// non-reproduction there.)
func TestCampaign(t *testing.T) {
	outcomes, err := Campaign(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) < 5 {
		t.Fatalf("only %d outcomes", len(outcomes))
	}
	byFinding := map[core.FindingID]bool{}
	for _, o := range outcomes {
		if o.Reproduced {
			byFinding[o.Finding] = true
		}
	}
	for _, id := range []core.FindingID{core.S1, core.S3, core.S4, core.S6} {
		if !byFinding[id] {
			t.Errorf("%s: no counterexample reproduced on the emulator", id)
		}
	}
}

// S2's counterexamples reproduce on the emulator through targeted drops
// and reordering jitter — beyond what the paper could stage over real
// carriers (§5.2.2) — and the reliable shim prevents all of them.
func TestReplayS2(t *testing.T) {
	world := core.S2World(false)
	opt := world.Options
	opt.Strategy = check.BFS
	r, err := core.Screen(world, opt)
	if err != nil {
		t.Fatal(err)
	}
	reproduced := 0
	for _, v := range r.Result.Violations {
		o, err := Replay(core.S2, v, Config{InitialGlobals: world.World.GlobalsMap()})
		if err != nil {
			t.Fatal(err)
		}
		if o.Reproduced {
			reproduced++
			// The same counterexample must NOT reproduce with the shim.
			f, err := Replay(core.S2, v, Config{
				Fixes:          netemu.FixSet{ReliableSignaling: true},
				InitialGlobals: world.World.GlobalsMap(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if f.Reproduced {
				t.Fatalf("S2 reproduced despite the reliable shim: %s", f)
			}
		}
	}
	if reproduced == 0 {
		t.Fatal("no S2 counterexample reproduced")
	}
	t.Logf("S2: %d/%d counterexamples reproduced", reproduced, len(r.Result.Violations))
}

// Every Replay builds fresh emulator worlds — machines, globals,
// simulator, collector — over protocol specs held once per stack
// configuration (netemu's spec table), never per replay. Nothing of a
// replay may stay reachable once it returns: a package-level cache
// keyed by a per-replay *fsm.Spec once pinned ~119 KB per replay, which
// put a 1,152-replay loss sweep at a 1.1 GB heap.
func TestReplayRetainsNothing(t *testing.T) {
	v := screenFirst(t, core.S1World(false))
	replay := func() {
		if _, err := Replay(core.S1, v, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	replay() // interned names and other one-off set-up
	const n = 200
	before := live()
	for i := 0; i < n; i++ {
		replay()
	}
	if grown := int64(live()-before) / n; grown > 5<<10 {
		t.Fatalf("live heap grew %d B per replay over %d replays, want < 5 KB", grown, n)
	}
}
