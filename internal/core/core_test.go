package core

import (
	"strings"
	"testing"

	"cnetverifier/internal/check"
	"cnetverifier/internal/model"
	"cnetverifier/internal/names"
	"cnetverifier/internal/types"
)

func TestFindingsRegistry(t *testing.T) {
	fs := Findings()
	if len(fs) != 6 {
		t.Fatalf("findings = %d, want 6", len(fs))
	}
	ids := []FindingID{S1, S2, S3, S4, S5, S6}
	for i, f := range fs {
		if f.ID != ids[i] {
			t.Fatalf("finding %d = %s, want %s", i, f.ID, ids[i])
		}
		if f.Problem == "" || f.RootCause == "" || f.Fix == "" || f.Section == "" {
			t.Fatalf("finding %s has empty fields", f.ID)
		}
		if len(f.Protocols) == 0 || len(f.Dimensions) == 0 {
			t.Fatalf("finding %s missing protocols/dimensions", f.ID)
		}
		if f.String() == "" {
			t.Fatal("empty String")
		}
	}
	// Per Table 1: four design issues, two operational.
	design := 0
	for _, f := range fs {
		if f.Type == types.DesignIssue {
			design++
		}
	}
	if design != 4 {
		t.Fatalf("design issues = %d, want 4", design)
	}
	if _, ok := FindingByID(S3); !ok {
		t.Fatal("FindingByID(S3) missed")
	}
	if _, ok := FindingByID("S9"); ok {
		t.Fatal("FindingByID(S9) found")
	}
}

// screenOne is a helper running the checker over a scoped world.
func screenOne(t *testing.T, s Scoped) ScreenResult {
	t.Helper()
	r, err := Screen(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The central screening results: every defective world violates its
// property, and every fixed world is clean within the same bounds.

func TestScreenS1FindsViolation(t *testing.T) {
	r := screenOne(t, S1World(false))
	if !r.Result.Violated("PacketService_OK") {
		t.Fatal("S1 world: PacketService_OK violation not found")
	}
	// The counterexample must include the defining steps: a 4G→3G
	// switch, a PDP deactivation, and the rejected return TAU.
	v := r.Result.ViolationsOf("PacketService_OK")[0]
	var sawTAUReject bool
	for _, s := range v.Path {
		if s.Msg.Kind == types.MsgTrackingAreaUpdateReject {
			sawTAUReject = true
		}
	}
	if !sawTAUReject {
		t.Fatalf("S1 counterexample lacks TAU reject:\n%s", check.FormatCounterexample(v))
	}
}

func TestScreenS1FixClean(t *testing.T) {
	r := screenOne(t, S1World(true))
	if r.Violated() {
		t.Fatalf("S1 fixed world still violates: %v", r.Result.Violations)
	}
}

func TestScreenS2FindsViolation(t *testing.T) {
	r := screenOne(t, S2World(false))
	if !r.Result.Violated("PacketService_OK") {
		t.Fatal("S2 world: PacketService_OK violation not found")
	}
	// At least one counterexample must involve a drop or an
	// out-of-order delivery — the §5.2 root cause.
	var sawLossOrReorder bool
	for _, v := range r.Result.ViolationsOf("PacketService_OK") {
		for _, s := range v.Path {
			if s.Kind == model.StepDrop || s.Pos > 0 {
				sawLossOrReorder = true
			}
		}
	}
	if !sawLossOrReorder {
		t.Fatal("S2 counterexamples never exercise loss/reorder")
	}
}

func TestScreenS2FixClean(t *testing.T) {
	r := screenOne(t, S2World(true))
	if r.Violated() {
		t.Fatalf("S2 fixed world still violates: %v", r.Result.Violations)
	}
}

func TestScreenS3ReselectStuck(t *testing.T) {
	r := screenOne(t, S3World(false, names.SwitchReselect))
	if !r.Result.Violated("MM_OK") {
		t.Fatal("S3 world (reselection): MM_OK violation not found")
	}
}

// OP-I's redirect policy avoids S3 even without the fix (§5.3.2) —
// at the cost of disrupting the data session. Handover, the third
// switching option of Fig. 6a, avoids it too: only reselection (OP-II)
// strands the device.
func TestScreenS3RedirectClean(t *testing.T) {
	for _, opt := range []int{names.SwitchRedirect, names.SwitchHandover} {
		r := screenOne(t, S3World(false, opt))
		if r.Violated() {
			t.Fatalf("S3 world with switch option %d should not violate MM_OK: %v", opt, r.Result.Violations)
		}
	}
}

func TestScreenS3FixClean(t *testing.T) {
	r := screenOne(t, S3World(true, names.SwitchReselect))
	if r.Violated() {
		t.Fatalf("S3 fixed world still violates: %v", r.Result.Violations)
	}
}

func TestScreenS4CSFindsViolation(t *testing.T) {
	r := screenOne(t, S4CSWorld(false))
	if !r.Result.Violated("CallService_OK") {
		t.Fatal("S4 CS world: CallService_OK violation not found")
	}
}

func TestScreenS4CSFixClean(t *testing.T) {
	r := screenOne(t, S4CSWorld(true))
	if r.Violated() {
		t.Fatalf("S4 CS fixed world still violates: %v", r.Result.Violations)
	}
}

func TestScreenS4PSFindsViolation(t *testing.T) {
	r := screenOne(t, S4PSWorld(false))
	if !r.Result.Violated("DataService_OK") {
		t.Fatal("S4 PS world: DataService_OK violation not found")
	}
}

func TestScreenS4PSFixClean(t *testing.T) {
	r := screenOne(t, S4PSWorld(true))
	if r.Violated() {
		t.Fatalf("S4 PS fixed world still violates: %v", r.Result.Violations)
	}
}

func TestScreenS6FindsViolation(t *testing.T) {
	r := screenOne(t, S6World(false))
	if !r.Result.Violated("PacketService_OK") {
		t.Fatal("S6 world: PacketService_OK violation not found")
	}
}

func TestScreenS6FixClean(t *testing.T) {
	r := screenOne(t, S6World(true))
	if r.Violated() {
		t.Fatalf("S6 fixed world still violates: %v", r.Result.Violations)
	}
}

func TestScreenAllAndVerifyFixes(t *testing.T) {
	results, err := ScreenAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6 scoped worlds", len(results))
	}
	for _, r := range results {
		if !r.Violated() {
			t.Errorf("defective world %s found no violation", r.Finding)
		}
	}
	fixedResults, err := VerifyFixes()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fixedResults {
		if r.Violated() {
			t.Errorf("fixed world %s still violates", r.Finding)
		}
	}
}

// Counterexamples from the screening phase must replay deterministically
// (the §3.1 bridge into the validation phase).
func TestCounterexamplesReplay(t *testing.T) {
	for _, s := range ScopedModels() {
		r := screenOne(t, s)
		for _, v := range r.Result.Violations {
			if _, err := check.Replay(s.World, v.Path); err != nil {
				t.Errorf("%s: replay failed: %v", s.Finding, err)
			}
		}
	}
}

func TestReportFormat(t *testing.T) {
	results, err := ScreenAll()
	if err != nil {
		t.Fatal(err)
	}
	out := Report(results, false)
	for _, id := range []string{"S1", "S2", "S3", "S4", "S6"} {
		if !strings.Contains(out, id) {
			t.Fatalf("report missing %s:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "VIOLATED") {
		t.Fatalf("report missing violations:\n%s", out)
	}
	verbose := Report(results[:1], true)
	if !strings.Contains(verbose, "counterexample") {
		t.Fatalf("verbose report missing counterexample:\n%s", verbose)
	}
}

// BFS over the S2 world produces a minimal counterexample that should
// be short (single-digit steps): attach, lose the complete, TAU,
// implicit detach.
func TestS2ShortestCounterexample(t *testing.T) {
	s := S2World(false)
	opt := s.Options
	opt.Strategy = check.BFS
	r, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	vs := r.Result.ViolationsOf("PacketService_OK")
	if len(vs) == 0 {
		t.Fatal("no violation via BFS")
	}
	if got := len(vs[0].Path); got > 9 {
		t.Fatalf("BFS counterexample has %d steps, expected <= 9", got)
	}
}

// Transition coverage of the scoped screenings: the defining defect
// transitions must be exercised by their worlds.
func TestScreeningCoverage(t *testing.T) {
	cases := []struct {
		world Scoped
		proc  string
		trans string
	}{
		{S1World(false), "mme.emm", "tau-no-context-detach"},
		{S2World(false), "mme.emm", "tau-implicit-detach"},
		{S3World(false, names.SwitchReselect), "ue.rrc3g", "csfb-end-stuck"},
		{S4CSWorld(false), "ue.mm", "svc-blocked-lu"},
		{S6World(false), "mme.emm", "tau-lufail-detach"},
	}
	for _, c := range cases {
		r := screenOne(t, c.world)
		if r.Result.Covered[c.proc+"/"+c.trans] == 0 {
			t.Errorf("%s: defect transition %s/%s never exercised", c.world.Finding, c.proc, c.trans)
		}
		out := CoverageSummary(c.world, r)
		if !strings.Contains(out, c.proc) {
			t.Fatalf("coverage summary missing %s:\n%s", c.proc, out)
		}
	}
}

// S1's essential trigger set: power-on, the 4G→3G switch, exactly one
// context-deactivation event, and the return reselection — the
// WiFi-offload and network-side deactivation alternatives are
// redundant with the device-side one and get dropped.
func TestS1EssentialEvents(t *testing.T) {
	s := S1World(false)
	opt := s.Options
	opt.Strategy = check.BFS
	r, err := Screen(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Result.Violations[0]
	essential, err := check.EssentialEvents(s.World, s.Props, s.Scenario, opt, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(essential) != 4 {
		t.Fatalf("essential events = %d (%v), want 4", len(essential), essential)
	}
	kinds := map[types.MsgKind]bool{}
	for _, e := range essential {
		kinds[e.Msg.Kind] = true
	}
	for _, want := range []types.MsgKind{types.MsgPowerOn, types.MsgInterSystemSwitchCommand, types.MsgInterSystemCellReselect} {
		if !kinds[want] {
			t.Fatalf("essential set missing %s: %v", want, essential)
		}
	}
}
