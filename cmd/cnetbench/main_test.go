package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cnetbench runs the command and returns its exit status, stdout and
// stderr.
func cnetbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: every misuse exits 2 with a message naming what was
// wrong, before any experiment runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"table1", "extra"}, `unexpected argument "table1"`},
		{[]string{"-exp", "table1", "extra"}, `unexpected argument "extra"`},
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus" (known: all, coverage, fig10, fig12, fig13, fig4, fig7, fig8, fig9, inflation, s5vol, sec93, table1, table3, table4, table5, table6, validate)`},
		{[]string{"-exp", "vlean"}, `unknown experiment "vlean"`},
		{[]string{"-exp", "vlean+por+sym"}, `unknown experiment "vlean+por+sym"`},
		{[]string{"-exp", "perf"}, `unknown experiment "perf"`},
		{[]string{"-exp", "campaign"}, `unknown experiment "campaign"`},
		{[]string{"-exp", "table1", "-json"}, "flag provided but not defined: -json"},
		{[]string{"-exp", "fig4", "-perf-label", "x"}, "flag provided but not defined: -perf-label"},
		{[]string{"-exp", "fig4", "-runs", "0"}, "-runs must be at least 1, got 0"},
		{[]string{"-exp", "fig4", "-runs", "-2"}, "-runs must be at least 1, got -2"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		code, out, stderr := cnetbench(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and a message containing %q",
				tc.args, code, out, stderr, tc.want)
		}
	}
}

// TestUsageErrorKeepsOutputFile: a refused run leaves an existing -o
// file as it was instead of truncating it.
func TestUsageErrorKeepsOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.txt")
	if err := os.WriteFile(path, []byte("earlier report\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-exp", "bogus", "-o", path},
		{"-exp", "table1", "-json", "-o", path},
		{"-exp", "perf", "-o", path},
		{"-exp", "fig4", "-runs", "0", "-o", path},
		{"-o", path, "table1"},
	} {
		if code, _, _ := cnetbench(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "earlier report\n" {
			t.Fatalf("%v: output file now %q, %v; want it untouched", args, b, err)
		}
	}
}

// TestTable1: one paper section runs alone and writes to -o.
func TestTable1(t *testing.T) {
	code, out, stderr := cnetbench(t, "-exp", "table1")
	if code != 0 || stderr != "" || !strings.HasPrefix(out, "Table 1: finding summary") || strings.Contains(out, "Table 3") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, out)
	}
	path := filepath.Join(t.TempDir(), "t1.txt")
	if code, _, stderr := cnetbench(t, "-exp", "TABLE1", "-o", path); code != 0 || stderr != "" {
		t.Fatalf("-o: exit %d, stderr %q", code, stderr)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != out {
		t.Fatalf("-o file differs from stdout run: %v\n%s", err, b)
	}
}
