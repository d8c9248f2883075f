package main

import (
	"encoding/json"
	"strings"
	"testing"

	"cnetverifier/internal/lint"
)

// cnetlint runs the command and returns its exit status, stdout and
// stderr.
func cnetlint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// target is one linted target of the -json output (severities stay
// strings: lint.Severity marshals as a name and does not unmarshal).
type target struct {
	Target   string `json:"target"`
	Findings []struct {
		Rule     string `json:"rule"`
		Severity string `json:"severity"`
		Proc     string `json:"proc"`
	} `json:"findings"`
}

// lintJSON runs the command with -json and decodes its targets.
func lintJSON(t *testing.T, args ...string) (int, []target) {
	t.Helper()
	code, out, stderr := cnetlint(t, append(args, "-json")...)
	var targets []target
	if err := json.Unmarshal([]byte(out), &targets); err != nil {
		t.Fatalf("%v: stdout is not JSON (%v); stderr %q", args, err, stderr)
	}
	return code, targets
}

func TestRules(t *testing.T) {
	code, out, _ := cnetlint(t, "-rules")
	if code != 0 || strings.Count(out, "\n") != len(lint.Rules()) || !strings.Contains(out, lint.RuleShadowed) {
		t.Fatalf("-rules: exit %d, stdout %q", code, out)
	}
	code, out, _ = cnetlint(t, "-rules", "-json")
	var rules []struct{ ID, Severity string }
	if err := json.Unmarshal([]byte(out), &rules); code != 0 || err != nil || len(rules) != len(lint.Rules()) {
		t.Fatalf("-rules -json: exit %d, %d rules, err %v", code, len(rules), err)
	}
}

// TestUsageErrors: every misuse exits 2 with a message naming what was
// wrong, and prints no report.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "nope", "-world", "none"}, `unknown spec "nope"`},
		{[]string{"-spec", "none", "-world", "nope"}, `unknown world "nope"`},
		{[]string{"-dot", "nope"}, `unknown spec "nope"`},
		{[]string{"-effects", "nope"}, `unknown world "nope"`},
		{[]string{"-suppress", "NOPE123"}, `unknown rule ID "NOPE123"`},
		{[]string{"-suppress", lint.RuleShadowed + ",NOPE123"}, `unknown rule ID "NOPE123"`},
		{[]string{"-fail-on", "fatal"}, `unknown severity "fatal"`},
		{[]string{"-effects", "s1", "-graph", "s2"}, "-effects and -graph"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		code, out, stderr := cnetlint(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, a message with %q", tc.args, code, out, stderr, tc.want)
		}
	}
}

func TestOneWorldJSON(t *testing.T) {
	code, targets := lintJSON(t, "-spec", "none", "-world", "s1")
	if code != 0 || len(targets) != 1 || targets[0].Target != "world s1" || len(targets[0].Findings) == 0 {
		t.Fatalf("exit %d, targets %+v", code, targets)
	}
	// Suppressing a rule that fires removes exactly its findings.
	rule := targets[0].Findings[0].Rule
	_, suppressed := lintJSON(t, "-spec", "none", "-world", "s1", "-suppress", rule)
	kept := 0
	for _, f := range targets[0].Findings {
		if f.Rule != rule {
			kept++
		}
	}
	for _, f := range suppressed[0].Findings {
		if f.Rule == rule {
			t.Fatalf("-suppress %s left finding %+v", rule, f)
		}
	}
	if len(suppressed[0].Findings) != kept {
		t.Fatalf("-suppress %s: %d findings, want %d", rule, len(suppressed[0].Findings), kept)
	}
}

// TestFailOn: the threshold decides the exit status of a clean run.
func TestFailOn(t *testing.T) {
	if code, _, _ := cnetlint(t, "-spec", "none", "-world", "s1"); code != 0 {
		t.Fatalf("default -fail-on error: exit %d, want 0 (the standard worlds lint without errors)", code)
	}
	code, out, _ := cnetlint(t, "-spec", "none", "-world", "s1", "-fail-on", "info")
	if code != 1 || !strings.Contains(out, "linted 1 targets") {
		t.Fatalf("-fail-on info: exit %d, stdout ends %q; want 1", code, out[max(0, len(out)-80):])
	}
}

func TestEffectsAndGraph(t *testing.T) {
	if code, out, _ := cnetlint(t, "-effects", "s1"); code != 0 || !strings.HasPrefix(out, "process ") {
		t.Fatalf("-effects s1: exit %d, stdout %.40q", code, out)
	}
	if code, out, _ := cnetlint(t, "-graph", "s1"); code != 0 || !strings.HasPrefix(out, "digraph ") {
		t.Fatalf("-graph s1: exit %d, stdout %.40q", code, out)
	}
}
