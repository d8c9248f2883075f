package lint_test

import (
	"encoding/json"
	"strings"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/lint"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// spec builds a minimal spec rooted at state "A".
func spec(name string, ts ...fsm.Transition) *fsm.Spec {
	return &fsm.Spec{Name: name, Init: "A", Transitions: ts}
}

// world composes a lint-target world, failing the test on config errors.
func world(t *testing.T, cfg model.Config) *model.World {
	t.Helper()
	w, err := model.New(cfg)
	if err != nil {
		t.Fatalf("model.New: %v", err)
	}
	return w
}

// assertRule checks the report carries at least one finding of the rule
// at the severity, with the substring in its detail.
func assertRule(t *testing.T, r *lint.Report, rule string, sev lint.Severity, sub string) {
	t.Helper()
	for _, f := range r.ByRule(rule) {
		if f.Severity == sev && strings.Contains(f.Detail, sub) {
			return
		}
	}
	t.Errorf("no %s finding at %s containing %q; report:\n%s", rule, sev, sub, r.Text())
}

// assertNoRule checks no finding of the rule is present.
func assertNoRule(t *testing.T, r *lint.Report, rule string) {
	t.Helper()
	if got := r.ByRule(rule); len(got) > 0 {
		t.Errorf("unexpected %s findings: %v", rule, got)
	}
}

func TestSpecInvalid(t *testing.T) {
	r := lint.Spec(&fsm.Spec{Name: "broken"}, lint.Options{})
	assertRule(t, r, lint.RuleSpecInvalid, lint.Error, "initial state")
	if len(r.Findings) != 1 {
		t.Errorf("invalid spec should short-circuit the other passes, got %d findings", len(r.Findings))
	}
}

func TestShadowedFull(t *testing.T) {
	s := spec("shadow",
		fsm.Transition{Name: "catchall", From: fsm.Any, On: types.MsgPowerOff, To: "A"},
		fsm.Transition{Name: "dead", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleShadowed, lint.Error, `"catchall"`)
}

func TestShadowedPartial(t *testing.T) {
	s := spec("partial",
		fsm.Transition{Name: "go", From: "A", On: types.MsgAttachRequest, To: "B"},
		fsm.Transition{Name: "first", From: "A", On: types.MsgPowerOff, To: "A"},
		fsm.Transition{Name: "later", From: fsm.Any, On: types.MsgPowerOff, To: "B"},
	)
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleShadowed, lint.Warn, "state A")
}

func TestOverlap(t *testing.T) {
	s := &fsm.Spec{Name: "overlap", Init: "A", Vars: map[string]int{"v": 0},
		Transitions: []fsm.Transition{
			{Name: "low", From: "A", On: types.MsgAttachRequest, To: "A",
				Guard: func(c fsm.Ctx, e fsm.Event) bool { return c.Get("v") >= 1 }},
			{Name: "high", From: "A", On: types.MsgAttachRequest, To: "A",
				Guard: func(c fsm.Ctx, e fsm.Event) bool { return c.Get("v") <= 2 }},
		}}
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleOverlap, lint.Warn, `"low"`)
}

// statesOf returns the states of the rule's findings, in report order.
func statesOf(r *lint.Report, rule string) []string {
	var out []string
	for _, f := range r.ByRule(rule) {
		out = append(out, f.State)
	}
	return out
}

// TestReachable: reachability expands wildcard sources, resolves Same
// to a self-loop and crosses guarded edges, so every state of this spec
// is reachable and none is a dead end; only C, entered solely through a
// guarded edge, is flagged as guard-reachable.
func TestReachable(t *testing.T) {
	s := spec("reach",
		fsm.Transition{Name: "ab", From: "A", On: types.MsgPowerOn, To: "B"},
		fsm.Transition{Name: "bc", From: "B", On: types.MsgPowerOff, To: "C",
			Guard: func(c fsm.Ctx, e fsm.Event) bool { return true }},
		fsm.Transition{Name: "self", From: "C", On: types.MsgUserMove, To: fsm.Same},
		fsm.Transition{Name: "reset", From: fsm.Any, On: types.MsgPeriodicTimer, To: "A"},
	)
	r := lint.Spec(s, lint.Options{})
	assertNoRule(t, r, lint.RuleUnreachableState)
	assertNoRule(t, r, lint.RuleDeadEndState)
	if got := statesOf(r, lint.RuleGuardedReach); len(got) != 1 || got[0] != "C" {
		t.Errorf("guard-reachable states = %v, want [C]", got)
	}
}

func TestUnreachableState(t *testing.T) {
	s := spec("unreach",
		fsm.Transition{Name: "go", From: "A", On: types.MsgAttachRequest, To: "B"},
		fsm.Transition{Name: "back", From: "B", On: types.MsgAttachAccept, To: "A"},
		fsm.Transition{Name: "orphan", From: "Z", On: types.MsgAttachRequest, To: "B"},
	)
	r := lint.Spec(s, lint.Options{})
	assertRule(t, r, lint.RuleUnreachableState, lint.Error, "no transition path")
}

func TestDeadEndState(t *testing.T) {
	s := spec("deadend",
		fsm.Transition{Name: "go", From: "A", On: types.MsgAttachRequest, To: "B"},
	)
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleDeadEndState, lint.Warn, "stuck")
}

func TestGuardedReach(t *testing.T) {
	s := &fsm.Spec{Name: "guarded", Init: "A", Vars: map[string]int{"v": 0},
		Transitions: []fsm.Transition{
			{Name: "maybe", From: "A", On: types.MsgAttachRequest, To: "B",
				Guard: func(c fsm.Ctx, e fsm.Event) bool { return c.Get("v") > 0 }},
			{Name: "back", From: "B", On: types.MsgAttachAccept, To: "A"},
		}}
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleGuardedReach, lint.Info, "guarded transition")
}

func TestDupTransitionName(t *testing.T) {
	s := spec("dup",
		fsm.Transition{Name: "same", From: "A", On: types.MsgAttachRequest, To: "A"},
		fsm.Transition{Name: "same", From: "A", On: types.MsgAttachAccept, To: "A"},
	)
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleDupTransition, lint.Warn, "2 transitions")
}

func TestVarWriteOnly(t *testing.T) {
	s := spec("writeonly",
		fsm.Transition{Name: "w", From: "A", On: types.MsgAttachRequest, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) { c.Set("x", 1) }},
	)
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleVarWriteOnly, lint.Warn, `"x"`)
}

func TestVarReadOnly(t *testing.T) {
	s := spec("readonly",
		fsm.Transition{Name: "r", From: "A", On: types.MsgAttachRequest, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) { _ = c.Get("y") }},
	)
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleVarReadOnly, lint.Info, `"y"`)
}

func TestVarUnused(t *testing.T) {
	s := &fsm.Spec{Name: "unused", Init: "A", Vars: map[string]int{"z": 7},
		Transitions: []fsm.Transition{
			{Name: "loop", From: "A", On: types.MsgAttachRequest, To: fsm.Same},
		}}
	assertRule(t, lint.Spec(s, lint.Options{}), lint.RuleVarUnused, lint.Warn, `"z"`)
}

func TestDeadLetterSend(t *testing.T) {
	sender := spec("sender",
		fsm.Transition{Name: "send", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) {
				c.Send("ue.b", types.Message{Kind: types.MsgAttachRequest})
			}},
	)
	recv := spec("recv",
		fsm.Transition{Name: "h", From: "A", On: types.MsgAttachAccept, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{
		{Name: "ue.a", Spec: sender},
		{Name: "ue.b", Spec: recv},
	}})
	r := lint.World(w, lint.Options{})
	assertRule(t, r, lint.RuleDeadLetterSend, lint.Error, "AttachRequest")
	// The same world exhibits a dead inbox: ue.b's AttachAccept handler
	// has no sender and no environment hint.
	assertRule(t, r, lint.RuleHandlerNoSender, lint.Warn, "AttachAccept")
}

func TestHandlerNoSenderEnvHint(t *testing.T) {
	recv := spec("recv",
		fsm.Transition{Name: "h", From: "A", On: types.MsgAttachAccept, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.b", Spec: recv}}})
	r := lint.World(w, lint.Options{})
	assertRule(t, r, lint.RuleHandlerNoSender, lint.Warn, "AttachAccept")
	hinted := lint.World(w, lint.Options{Env: []lint.EnvHint{
		{Proc: "ue.b", Kind: uint16(types.MsgAttachAccept)},
	}})
	assertNoRule(t, hinted, lint.RuleHandlerNoSender)
}

func TestOutputUnhandled(t *testing.T) {
	upper := spec("upper",
		fsm.Transition{Name: "out", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) {
				c.Output(types.Message{Kind: types.MsgAttachRequest})
			}},
	)
	lower := spec("lower",
		fsm.Transition{Name: "h", From: "A", On: types.MsgAttachAccept, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{
		{Name: "ue.a", Spec: upper, OutputTo: []string{"ue.b"}},
		{Name: "ue.b", Spec: lower},
	}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleOutputUnhandled, lint.Error, "AttachRequest")
}

func TestOutputNoTargets(t *testing.T) {
	upper := spec("upper",
		fsm.Transition{Name: "out", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) {
				c.Output(types.Message{Kind: types.MsgAttachRequest})
			}},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: upper}}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleOutputNoTargets, lint.Warn, "vanishes")
}

func TestOutputTargetGone(t *testing.T) {
	// model.New rejects unknown OutputTo targets, so hand-build the
	// broken world (lint must catch it anyway: worlds can be assembled
	// without the constructor).
	s := spec("solo",
		fsm.Transition{Name: "h", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	w := &model.World{
		Procs: []*model.Proc{{Name: "ue.a", M: fsm.New(s), OutputTo: []string{"ue.ghost"}}},
		Chans: []*model.Channel{{Name: "ue.a"}},
	}
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleOutputTargetGone, lint.Error, `"ue.ghost"`)
}

func TestOutputNotLocal(t *testing.T) {
	upper := spec("upper",
		fsm.Transition{Name: "out", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) {
				c.Output(types.Message{Kind: types.MsgAttachRequest})
			}},
	)
	lower := spec("lower",
		fsm.Transition{Name: "h", From: "A", On: types.MsgAttachRequest, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{
		{Name: "ue.a", Spec: upper, OutputTo: []string{"mme.b"}},
		{Name: "mme.b", Spec: lower},
	}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleOutputNotLocal, lint.Error, "co-located")
}

func TestChannelMismatch(t *testing.T) {
	s := spec("solo",
		fsm.Transition{Name: "h", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	w := &model.World{
		Procs: []*model.Proc{{Name: "ue.a", M: fsm.New(s)}},
		Chans: []*model.Channel{{Name: "ue.x"}},
	}
	r := lint.World(w, lint.Options{})
	assertRule(t, r, lint.RuleChannelMismatch, lint.Error, "no inbox channel")
	assertRule(t, r, lint.RuleChannelMismatch, lint.Error, "no matching process")
}

func TestSendTargetGone(t *testing.T) {
	sender := spec("sender",
		fsm.Transition{Name: "send", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) {
				c.Send("ue.ghost", types.Message{Kind: types.MsgAttachRequest})
			}},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: sender}}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleSendTargetGone, lint.Warn, "drops")
}

func TestEnvTargetGone(t *testing.T) {
	s := spec("solo",
		fsm.Transition{Name: "h", From: "A", On: types.MsgPowerOn, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: s}}})
	opts := lint.Options{Env: []lint.EnvHint{
		{Proc: "ue.a", Kind: uint16(types.MsgPowerOn)},
		{Proc: "ue.ghost", Kind: uint16(types.MsgPowerOn)},
	}}
	assertRule(t, lint.World(w, opts), lint.RuleEnvTargetGone, lint.Warn, "never fire")
}

func TestNegativeCap(t *testing.T) {
	s := spec("solo",
		fsm.Transition{Name: "h", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: s, Cap: -1}}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleNegativeCap, lint.Error, "-1")
}

func TestReorderNotLossy(t *testing.T) {
	s := spec("solo",
		fsm.Transition{Name: "h", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: s, Reorder: true}}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleReorderNotLossy, lint.Warn, "lossy")
}

func TestGlobalWriteOnly(t *testing.T) {
	s := spec("gwriter",
		fsm.Transition{Name: "w", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) { c.Set("g.x", 1) }},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: s}}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleGlobalWriteOnly, lint.Info, `"g.x"`)
}

func TestGlobalReadOnly(t *testing.T) {
	s := spec("greader",
		fsm.Transition{Name: "r", From: "A", On: types.MsgPowerOff, To: "A",
			Action: func(c fsm.Ctx, e fsm.Event) { _ = c.Get("g.y") }},
	)
	w := world(t, model.Config{Procs: []model.ProcConfig{{Name: "ue.a", Spec: s}}})
	assertRule(t, lint.World(w, lint.Options{}), lint.RuleGlobalReadOnly, lint.Warn, `"g.y"`)

	// An initialized global is configuration, not a defect.
	init := world(t, model.Config{
		Procs:   []model.ProcConfig{{Name: "ue.a", Spec: s}},
		Globals: map[string]int{"g.y": 1},
	})
	assertNoRule(t, lint.World(init, lint.Options{}), lint.RuleGlobalReadOnly)
}

func TestCleanSpec(t *testing.T) {
	s := &fsm.Spec{Name: "clean", Init: "A", Vars: map[string]int{"v": 0},
		Transitions: []fsm.Transition{
			{Name: "go", From: "A", On: types.MsgAttachRequest, To: "B",
				Action: func(c fsm.Ctx, e fsm.Event) { c.Set("v", 1) }},
			{Name: "back", From: "B", On: types.MsgAttachAccept, To: "A",
				Guard: func(c fsm.Ctx, e fsm.Event) bool { return c.Get("v") == 1 }},
		}}
	if r := lint.Spec(s, lint.Options{}); len(r.Findings) != 0 {
		t.Errorf("clean spec has findings:\n%s", r.Text())
	}
}

func TestSuppress(t *testing.T) {
	s := spec("shadow",
		fsm.Transition{Name: "catchall", From: fsm.Any, On: types.MsgPowerOff, To: "A"},
		fsm.Transition{Name: "dead", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	perSpec := lint.Spec(s, lint.Options{Suppress: map[string][]string{"shadow": {lint.RuleShadowed}}})
	assertNoRule(t, perSpec, lint.RuleShadowed)
	everywhere := lint.Spec(s, lint.Options{Suppress: map[string][]string{"*": {lint.RuleShadowed}}})
	assertNoRule(t, everywhere, lint.RuleShadowed)
	other := lint.Spec(s, lint.Options{Suppress: map[string][]string{"unrelated": {lint.RuleShadowed}}})
	assertRule(t, other, lint.RuleShadowed, lint.Error, `"catchall"`)
}

func TestReportRenders(t *testing.T) {
	s := spec("shadow",
		fsm.Transition{Name: "catchall", From: fsm.Any, On: types.MsgPowerOff, To: "A"},
		fsm.Transition{Name: "dead", From: "A", On: types.MsgPowerOff, To: "A"},
	)
	r := lint.Spec(s, lint.Options{})
	if txt := r.Text(); !strings.Contains(txt, "SPEC002") || !strings.Contains(txt, "findings") {
		t.Errorf("bad text rendering:\n%s", txt)
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded struct {
		Findings []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(decoded.Findings) == 0 || decoded.Findings[0].Rule != lint.RuleShadowed || decoded.Findings[0].Severity != "error" {
		t.Errorf("bad JSON rendering: %s", raw)
	}
}

func TestAnnotatedDOT(t *testing.T) {
	s := spec("annot",
		fsm.Transition{Name: "catchall", From: fsm.Any, On: types.MsgPowerOff, To: "A"},
		fsm.Transition{Name: "dead", From: "A", On: types.MsgPowerOff, To: "A"},
		fsm.Transition{Name: "go", From: "A", On: types.MsgAttachRequest, To: "B"},
		fsm.Transition{Name: "orphan", From: "Z", On: types.MsgAttachRequest, To: "B"},
	)
	r := lint.Spec(s, lint.Options{})
	dot := lint.DOT(s, r)
	for _, want := range []string{"digraph", "color=red", "fillcolor=gray80"} {
		if !strings.Contains(dot, want) {
			t.Errorf("annotated DOT misses %q:\n%s", want, dot)
		}
	}
}

func TestRuleCatalog(t *testing.T) {
	ids := []string{
		lint.RuleSpecInvalid, lint.RuleShadowed, lint.RuleOverlap,
		lint.RuleUnreachableState, lint.RuleDeadEndState, lint.RuleGuardedReach,
		lint.RuleDupTransition,
		lint.RuleVarWriteOnly, lint.RuleVarReadOnly, lint.RuleVarUnused,
		lint.RuleDeadLetterSend, lint.RuleHandlerNoSender, lint.RuleOutputUnhandled,
		lint.RuleOutputTargetGone, lint.RuleOutputNoTargets, lint.RuleOutputNotLocal,
		lint.RuleChannelMismatch, lint.RuleSendTargetGone, lint.RuleNegativeCap,
		lint.RuleReorderNotLossy, lint.RuleEnvTargetGone,
		lint.RuleGlobalWriteOnly, lint.RuleGlobalReadOnly,
		lint.RuleOutputPartial, lint.RuleChannelProtoMismatch, lint.RuleUnorderedWrites,
	}
	rules := lint.Rules()
	if len(rules) != len(ids) {
		t.Fatalf("catalog has %d rules, want %d", len(rules), len(ids))
	}
	for _, id := range ids {
		r, ok := lint.RuleByID(id)
		if !ok {
			t.Errorf("rule %s missing from catalog", id)
			continue
		}
		if r.Summary == "" || (r.Scope != "spec" && r.Scope != "world") {
			t.Errorf("rule %s has bad catalog entry: %+v", id, r)
		}
	}
	for i := 1; i < len(rules); i++ {
		if rules[i-1].ID >= rules[i].ID {
			t.Errorf("catalog not sorted/unique at %s vs %s", rules[i-1].ID, rules[i].ID)
		}
	}
}

func TestParseSeverity(t *testing.T) {
	for _, sev := range []lint.Severity{lint.Info, lint.Warn, lint.Error} {
		got, err := lint.ParseSeverity(sev.String())
		if err != nil || got != sev {
			t.Errorf("ParseSeverity(%q) = %v, %v", sev.String(), got, err)
		}
	}
	if _, err := lint.ParseSeverity("bogus"); err == nil {
		t.Errorf("ParseSeverity accepted bogus severity")
	}
}
