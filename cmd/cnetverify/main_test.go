package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cnetverifier/internal/check"
)

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]check.Strategy{
		"dfs": check.DFS, "bfs": check.BFS, "walk": check.RandomWalk,
		"DFS": check.DFS, "Bfs": check.BFS, "WALK": check.RandomWalk,
	} {
		got, err := parseStrategy(in)
		if err != nil || got != want {
			t.Errorf("parseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "random-walk", "dfs ", "astar"} {
		if got, err := parseStrategy(in); err == nil {
			t.Errorf("parseStrategy(%q) = %v, want an error", in, got)
		}
	}
}

// TestMain lets a test run the command itself: the test binary re-runs
// as cnetverify when CNETVERIFY_RUN_MAIN is set.
func TestMain(m *testing.M) {
	if os.Getenv("CNETVERIFY_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cnetverify runs the command in a child process and returns its exit
// status, stdout and stderr.
func cnetverify(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CNETVERIFY_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errb.String()
}

// TestStrayArgument: a bare world name is refused before anything is
// screened, not ignored in favour of every world.
func TestStrayArgument(t *testing.T) {
	for _, args := range [][]string{{"s1"}, {"-world", "s6", "s1"}} {
		code, out, stderr := cnetverify(t, args...)
		if code != 1 || out != "" || !strings.Contains(stderr, `unexpected argument "s1"`) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 naming the argument", args, code, out, stderr)
		}
	}
}

// TestStatsFrontier: -stats reports the layered engine's widest layer.
func TestStatsFrontier(t *testing.T) {
	code, out, stderr := cnetverify(t, "-world", "s1", "-strategy", "bfs", "-stats")
	if code != 0 || !strings.Contains(out, "S1 frontier: widest layer ") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, out)
	}
}

// TestOutOfRangeCounts: a number the world default would otherwise
// silently replace, or a depth the visited table cannot record, is
// refused before anything is screened.
func TestOutOfRangeCounts(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-depth", "-3"}, "-depth must be at least 0, got -3"},
		{[]string{"-states", "-5"}, "-states must be at least 0, got -5"},
		{[]string{"-budget", "-1"}, "-budget must be at least 0, got -1"},
		{[]string{"-workers", "0"}, "-workers must be at least 1, got 0"},
		{[]string{"-parallel", "0"}, "-parallel must be at least 1, got 0"},
		{[]string{"-walks", "0", "-strategy", "walk"}, "-walks must be at least 1, got 0"},
		{[]string{"-depth", "70000"}, "MaxDepth 70000 exceeds the visited table's depth limit 65535"},
	} {
		args := append([]string{"-world", "s1"}, c.args...)
		code, out, stderr := cnetverify(t, args...)
		if code != 1 || out != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 with %q", args, code, out, stderr, c.want)
		}
	}
}

// TestRetiredFlagRefused: the visited set has one mode, the exact one,
// and the flag that selected hash compaction is unknown.
func TestRetiredFlagRefused(t *testing.T) {
	code, out, stderr := cnetverify(t, "-world", "s1", "-compact")
	if code != 2 || out != "" || !strings.Contains(stderr, "flag provided but not defined: -compact") {
		t.Errorf("exit %d, stdout %q, stderr %q; want flag's exit 2", code, out, stderr)
	}
}

// TestReductionFlagsKeepViolations: -timing -timing-profile degenerate,
// -por, -sym and -workers together print the plain run's -violations.
func TestReductionFlagsKeepViolations(t *testing.T) {
	_, plain, _ := cnetverify(t, "-world", "s2", "-violations")
	code, reduced, stderr := cnetverify(t, "-world", "s2", "-timing", "-timing-profile", "degenerate",
		"-por", "-sym", "-workers", "4", "-violations")
	if plain == "" || code != 0 || reduced != plain {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nplain run's:\n%s", code, stderr, reduced, plain)
	}
}

// TestSymFlagReduces: -sym reaches the engine — on the shared-core
// world it screens fewer states than the same run without it.
func TestSymFlagReduces(t *testing.T) {
	statesOf := func(args ...string) int {
		_, out, _ := cnetverify(t, append([]string{"-world", "multiue-shared", "-stats"}, args...)...)
		m := regexp.MustCompile(`states=(\d+)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: no states count in %q", args, out)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if sym, plain := statesOf("-sym"), statesOf(); sym >= plain {
		t.Errorf("-sym screened %d states, the plain run %d; want fewer", sym, plain)
	}
}
