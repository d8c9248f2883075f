package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `00:00:01.000 SIGNAL 4G EMM-UE AttachRequest -> Registering [attach]
00:00:01.060 INFO 4G EMM-MME AttachAccept discarded in Idle
00:00:02.000 SIGNAL 3G MM-UE LocationUpdateRequest -> Updating [lu]
00:00:03.500 RETX 3G MM-UE retransmit LocationUpdateRequest (seq 2, attempt 1, next RTO 400ms)
00:00:05.250 SIGNAL 3G MM-UE LocationUpdateAccept -> Registered [lu_ok]
`

// cnettrace runs the command on the sample trace (stdin) and returns
// its exit status, stdout and stderr.
func cnettrace(t *testing.T, input string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(input), &out, &errb)
	return code, out.String(), errb.String()
}

func TestFilterOutput(t *testing.T) {
	code, out, stderr := cnettrace(t, sample, "-module", "MM-UE", "-type", "SIGNAL")
	want := "00:00:02.000 SIGNAL 3G MM-UE LocationUpdateRequest -> Updating [lu]\n" +
		"00:00:05.250 SIGNAL 3G MM-UE LocationUpdateAccept -> Registered [lu_ok]\n"
	if code != 0 || out != want || stderr != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0, %q", code, out, stderr, want)
	}
	if code, out, _ := cnettrace(t, sample, "-system", "4G", "-contains", "Attach"); code != 0 || strings.Count(out, "\n") != 2 {
		t.Fatalf("-system 4G -contains Attach: exit %d, stdout %q", code, out)
	}
	if code, out, _ := cnettrace(t, sample, "-type", "RETX"); code != 0 || !strings.Contains(out, "retransmit LocationUpdateRequest") {
		t.Fatalf("-type RETX: exit %d, stdout %q", code, out)
	}
}

func TestCount(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-count"}, "5\n"},
		{[]string{"-count", "-system", "3G"}, "3\n"},
		{[]string{"-count", "-type", "ABORT"}, "0\n"},
	} {
		if code, out, _ := cnettrace(t, sample, tc.args...); code != 0 || out != tc.want {
			t.Errorf("%v: exit %d, stdout %q; want 0, %q", tc.args, code, out, tc.want)
		}
	}
}

func TestSpan(t *testing.T) {
	code, out, _ := cnettrace(t, sample, "-span-start", "LocationUpdateRequest ->", "-span-end", "LocationUpdateAccept")
	if want := "span \"LocationUpdateRequest ->\" -> \"LocationUpdateAccept\": 3.25s\n"; code != 0 || out != want {
		t.Fatalf("exit %d, stdout %q; want 0, %q", code, out, want)
	}
	code, out, stderr := cnettrace(t, sample, "-span-start", "Attach", "-span-end", "Detach")
	if code != 2 || out != "" || !strings.Contains(stderr, "span events not found") {
		t.Fatalf("absent end: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
}

func TestFileInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := cnettrace(t, "", "-f", path, "-count"); code != 0 || out != "5\n" {
		t.Fatalf("-f: exit %d, stdout %q", code, out)
	}
	code, _, stderr := cnettrace(t, "", "-f", filepath.Join(t.TempDir(), "missing.txt"))
	if code != 1 || !strings.Contains(stderr, "missing.txt") {
		t.Fatalf("missing file: exit %d, stderr %q", code, stderr)
	}
}

// Misuse exits 1 with a message naming the problem, and prints nothing.
func TestMisuse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		args  []string
		want  string
	}{
		{"unknown system", sample, []string{"-system", "5G"}, `unknown system "5G"`},
		{"unknown type", sample, []string{"-type", "STAT"}, `unknown type "STAT"`},
		{"span start only", sample, []string{"-span-start", "Attach"}, "-span-start and -span-end must be given together"},
		{"span end only", sample, []string{"-span-end", "Attach"}, "-span-start and -span-end must be given together"},
		{"malformed line", sample + "00:00:06.5 SIGNAL 3G MM-UE late\n", nil, `bad timestamp "00:00:06.5"`},
	} {
		code, out, stderr := cnettrace(t, tc.input, tc.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 1 and a message containing %q",
				tc.name, code, out, stderr, tc.want)
		}
	}
	if code, _, _ := cnettrace(t, sample, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
