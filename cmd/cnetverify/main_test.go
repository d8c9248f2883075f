package main

import (
	"os"
	"os/exec"
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
