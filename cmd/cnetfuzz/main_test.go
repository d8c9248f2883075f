package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// cnetfuzz runs the command and returns its exit status, stdout and
// stderr.
func cnetfuzz(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: every misuse exits 2 with a message naming what was
// wrong, before any fuzzing or screening runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"s6"}, `unexpected argument "s6"`},
		{[]string{"-world", "s1", "s6"}, `unexpected argument "s6"`},
		{[]string{"-timing-profile", "bogus"}, "-timing-profile needs -timing"},
		{[]string{"-world", "s1", "-timing", "-timing-profile", "bogus"}, `unknown timing profile "bogus"`},
		{[]string{"-screen", "-timing"}, "-timing configures fuzzing"},
		{[]string{"-screen", "-world", "s1", "-budget", "10"}, "-budget configures fuzzing"},
		{[]string{"-screen", "-world", "s1", "-json"}, "add -shrink"},
		{[]string{"-screen", "-world", "all", "-fixed"}, "-fixed needs one world"},
		{[]string{"-budget", "-5"}, "-budget must be at least 1, got -5"},
		{[]string{"-budget", "0"}, "-budget must be at least 1, got 0"},
		{[]string{"-workers", "0"}, "-workers must be at least 1"},
		{[]string{"-world", "nope"}, `unknown world "nope"`},
		{[]string{"-world", "all"}, `unknown world "all"`},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		code, out, stderr := cnetfuzz(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and a message containing %q",
				tc.args, code, out, stderr, tc.want)
		}
	}
}

// TestJSONSummary: a small fuzzing run on S1 emits one JSON object
// naming the world, having spent its budget (the budget is checked
// between rounds, so a run ends at or past it).
func TestJSONSummary(t *testing.T) {
	code, out, stderr := cnetfuzz(t, "-world", "s1", "-budget", "300", "-json")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var sum struct {
		World string `json:"world"`
		Fuzz  struct {
			Schedules int `json:"schedules"`
			Steps     int `json:"steps"`
		} `json:"fuzz"`
	}
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if sum.World != "s1" || sum.Fuzz.Schedules == 0 || sum.Fuzz.Steps < 300 {
		t.Fatalf("summary %+v: want world s1 and at least its budget of 300 steps", sum)
	}
}
