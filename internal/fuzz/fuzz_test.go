package fuzz_test

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/fuzz"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

func s1Options(budget int) (core.Scoped, fuzz.Options) {
	s := core.StandardWorlds(false)["s1"]
	return s, fuzz.Options{
		Budget:    budget,
		Seed:      7,
		RoundSize: 16,
		Pool:      s.Scenario.Events(s.World),
	}
}

func corpusKeys(r *fuzz.Result) []string {
	out := make([]string, len(r.Corpus))
	for i, s := range r.Corpus {
		out[i] = fuzz.EncodeSchedule(s)
	}
	return out
}

func violationKeys(r *fuzz.Result) []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.Property + "\x00" + v.Desc
	}
	return out
}

// TestFuzzDeterminism pins the determinism contract: the result is a
// pure function of (world, props, Options minus Workers). The same
// seed and budget reproduce the identical coverage digest, kept-input
// sequence and violation list at workers=1; workers=8 must land on the
// same digest and kept inputs, with the same violation set (compared
// order-insensitively, though the engine in fact preserves order).
func TestFuzzDeterminism(t *testing.T) {
	s, opt := s1Options(2000)

	r1, err := fuzz.Fuzz(s.World, s.Props, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fuzz.Fuzz(s.World, s.Props, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CoverageDigest != r2.CoverageDigest {
		t.Errorf("same seed diverged: digest %s vs %s", r1.CoverageDigest, r2.CoverageDigest)
	}
	if a, b := corpusKeys(r1), corpusKeys(r2); strings.Join(a, "") != strings.Join(b, "") {
		t.Errorf("same seed kept different inputs: %d vs %d entries", len(a), len(b))
	}
	if a, b := violationKeys(r1), violationKeys(r2); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("same seed found different violations: %q vs %q", a, b)
	}

	opt.Workers = 8
	r8, err := fuzz.Fuzz(s.World, s.Props, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CoverageDigest != r8.CoverageDigest {
		t.Errorf("workers=8 digest %s, workers=1 %s", r8.CoverageDigest, r1.CoverageDigest)
	}
	if a, b := corpusKeys(r1), corpusKeys(r8); strings.Join(a, "") != strings.Join(b, "") {
		t.Errorf("workers=8 kept different inputs: %d vs %d entries", len(b), len(a))
	}
	a, b := violationKeys(r1), violationKeys(r8)
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("workers=8 violation set differs: %q vs %q", b, a)
	}
	if r1.Steps != r8.Steps || r1.Schedules != r8.Schedules {
		t.Errorf("workers=8 accounting differs: %d/%d steps, %d/%d schedules",
			r8.Steps, r1.Steps, r8.Schedules, r1.Schedules)
	}
}

// TestFuzzFindsAndShrinks runs the fuzzer on the defective S1 world
// until it trips a property, then shrinks the counterexample: the
// minimal trace must be no longer than the original, still reproduce
// under Shrink's strict replay, and pass the 1-minimality audit.
func TestFuzzFindsAndShrinks(t *testing.T) {
	s, opt := s1Options(30000)
	opt.StopAtFirst = true
	res, err := fuzz.Fuzz(s.World, s.Props, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("no violation on the defective S1 world in %d steps", res.Steps)
	}
	v := res.Violations[0]
	sr, err := fuzz.Shrink(s.World, s.Props, v, fuzz.ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps > sr.OriginalSteps {
		t.Errorf("shrink grew the trace: %d -> %d", sr.OriginalSteps, sr.Steps)
	}
	if sr.Steps != len(sr.Path) || sr.Steps == 0 {
		t.Errorf("inconsistent shrink result: Steps=%d, len(Path)=%d", sr.Steps, len(sr.Path))
	}
	if err := fuzz.VerifyMinimal(s.World, s.Props, sr.Property, sr.Desc, sr.Path); err != nil {
		t.Error(err)
	}
}

// TestCoverageNoteMerge exercises the feedback signal directly: the
// first firing of a transition is fresh, a repeat is not, and Merge
// reports exactly the bits the receiver was missing.
func TestCoverageNoteMerge(t *testing.T) {
	s := core.StandardWorlds(false)["s1"]
	w := s.World.Clone()
	steps := w.StepsEnvAppend(nil, s.Scenario.Events(s.World))
	if len(steps) == 0 {
		t.Fatal("no enabled environment step on the initial world")
	}
	applied, err := w.Apply(steps[0])
	if err != nil {
		t.Fatal(err)
	}

	cov := fuzz.NewCoverage(s.World)
	empty := cov.Digest()
	if fired, total := cov.Transitions(); fired != 0 || total == 0 {
		t.Fatalf("fresh coverage: %d/%d transitions", fired, total)
	}
	if !cov.Note(w, applied) {
		t.Error("first firing not reported fresh")
	}
	if cov.Note(w, applied) {
		t.Error("repeat firing reported fresh")
	}
	if cov.Digest() == empty {
		t.Error("digest unchanged after new coverage")
	}

	other := fuzz.NewCoverage(s.World)
	if neu := other.Merge(cov); neu == 0 {
		t.Error("merge into empty map found nothing new")
	}
	if neu := other.Merge(cov); neu != 0 {
		t.Errorf("second merge found %d new bits", neu)
	}
	if other.Digest() != cov.Digest() {
		t.Error("merged map digest differs from source")
	}
}

// TestScheduleCodecRoundTrip pins the .sched format: encode → decode →
// encode must be byte-identical.
func TestScheduleCodecRoundTrip(t *testing.T) {
	s := fuzz.Schedule{
		Seed: 42,
		Events: []model.EnvEvent{
			{Proc: "ue.emm", Msg: types.Message{Kind: types.MsgPowerOn}},
			{Proc: "ue.esm", Msg: types.Message{Kind: types.MsgDeactivatePDPRequest, Cause: types.CauseQoSNotAccepted}},
		},
	}
	enc := fuzz.EncodeSchedule(s)
	dec, err := fuzz.DecodeSchedule([]byte(enc))
	if err != nil {
		t.Fatal(err)
	}
	if again := fuzz.EncodeSchedule(dec); again != enc {
		t.Errorf("round trip drifted:\n--- first ---\n%s--- second ---\n%s", enc, again)
	}
	if _, err := fuzz.DecodeSchedule([]byte("event: ue.emm|NoSuchKind|none\n")); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := fuzz.DecodeSchedule([]byte("gibberish\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

// TestTraceCodecRoundTrip pins the .corpus format, including every
// Message field the strict replay depends on (system, domain, protocol,
// sequence number, routing stamps).
func TestTraceCodecRoundTrip(t *testing.T) {
	tr := fuzz.Trace{
		Finding:  "s1",
		Property: "PacketService_OK",
		Desc:     "device detached by network without user action",
		Digest:   "00000000deadbeef",
		Steps: []model.Step{
			{Kind: model.StepEnv, Proc: "ue.emm", TransIdx: 3,
				Msg: types.Message{Kind: types.MsgPowerOn}},
			{Kind: model.StepDeliver, Proc: "mme.emm", Pos: 1, TransIdx: 2,
				Msg: types.Message{Kind: types.MsgAttachRequest, System: 2, Domain: 1, Proto: 6, Seq: 9,
					From: "ue.emm", To: "mme.emm"}},
			{Kind: model.StepDrop, Proc: "ue.emm",
				Msg: types.Message{Kind: types.MsgAttachAccept, From: "mme.emm", To: "ue.emm"}},
			{Kind: model.StepDiscard, Proc: "ue.emm",
				Msg: types.Message{Kind: types.MsgAttachAccept}},
		},
	}
	enc := fuzz.EncodeTrace(tr)
	dec, err := fuzz.DecodeTrace([]byte(enc))
	if err != nil {
		t.Fatal(err)
	}
	if again := fuzz.EncodeTrace(dec); again != enc {
		t.Errorf("round trip drifted:\n--- first ---\n%s--- second ---\n%s", enc, again)
	}
	if len(dec.Steps) != len(tr.Steps) {
		t.Fatalf("decoded %d steps, want %d", len(dec.Steps), len(tr.Steps))
	}
	for i := range tr.Steps {
		if !reflect.DeepEqual(dec.Steps[i], tr.Steps[i]) {
			t.Errorf("step %d drifted: %+v != %+v", i+1, dec.Steps[i], tr.Steps[i])
		}
	}
	if _, err := fuzz.DecodeTrace([]byte("steps: 2\nstep: env|p|0|0|PowerOn|none|0|0|0|0||\n")); err == nil {
		t.Error("step-count mismatch accepted")
	}
	if _, err := fuzz.DecodeTrace([]byte("step: env|p|0|0|PowerOn|none\n")); err == nil {
		t.Error("legacy 6-field step accepted")
	}
}

// TestReverifySharedMonitorNames: a multi-UE world registers one
// DataService_OK monitor per UE, so the counterexample of a [ue1]
// violation reproduces only under the first of them. check.Reverify,
// which Fuzz and RandomBaseline re-verify through, must accept it — a
// name-keyed map keeping the last monitor of each name would not.
func TestReverifySharedMonitorNames(t *testing.T) {
	s := core.MultiUEWorldShared(2, false)
	r, err := core.Screen(s, s.Options)
	if err != nil {
		t.Fatal(err)
	}
	var v *check.Violation
	for i := range r.Result.Violations {
		if strings.HasSuffix(r.Result.Violations[i].Desc, "[ue1]") {
			v = &r.Result.Violations[i]
			break
		}
	}
	if v == nil {
		t.Fatal("screening the 2-UE shared world found no [ue1] violation")
	}
	var last check.Property
	for _, p := range s.Props {
		if p.Name() == v.Property {
			last = p
		}
	}
	end, err := check.Replay(s.World, v.Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := last.Check(end, v.Path[len(v.Path)-1]); got == v.Desc {
		t.Fatalf("the last %s monitor reports %q too; the test would not tell the monitors apart", v.Property, got)
	}
	if err := check.Reverify(s.World, s.Props, []check.Violation{*v}); err != nil {
		t.Error(err)
	}
}

// TestNoLiveEventFailsFast: on the 2-UE shared world the default
// FullSpace pool names processes the world does not have, so no event
// is ever enabled. Both loops must return ErrNoLiveEvent instead of
// spinning below a budget they can never spend.
func TestNoLiveEventFailsFast(t *testing.T) {
	s := core.MultiUEWorldShared(2, false)
	for _, loop := range []struct {
		name string
		run  func(*model.World, []check.Property, fuzz.Options) (*fuzz.Result, error)
	}{{"Fuzz", fuzz.Fuzz}, {"RandomBaseline", fuzz.RandomBaseline}} {
		done := make(chan error, 1)
		go func() {
			_, err := loop.run(s.World, s.Props, fuzz.Options{Budget: 1})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, fuzz.ErrNoLiveEvent) {
				t.Errorf("%s: err = %v, want ErrNoLiveEvent", loop.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10s", loop.name)
		}
	}
}

// TestRandomBaselineDeterminism pins the control arm too: the
// EXPERIMENTS.md comparison is only meaningful if both arms reproduce.
func TestRandomBaselineDeterminism(t *testing.T) {
	s, opt := s1Options(1500)
	r1, err := fuzz.RandomBaseline(s.World, s.Props, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fuzz.RandomBaseline(s.World, s.Props, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CoverageDigest != r2.CoverageDigest {
		t.Errorf("baseline diverged: %s vs %s", r1.CoverageDigest, r2.CoverageDigest)
	}
}
