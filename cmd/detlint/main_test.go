package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// detlint runs the command and returns its exit status, stdout and
// stderr.
func detlint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// pkgDir writes one Go source file into a fresh package directory and
// returns the directory.
func pkgDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRun drives direct mode and the flags: each case's exit status,
// and the message it must print (on stderr, or for the handshake on
// stdout).
func TestRun(t *testing.T) {
	clean := pkgDir(t, `package p

// Keys returns the keys of m in a fixed order.
func Keys(m map[string]int, order []string) []string {
	var out []string
	for _, k := range order {
		if _, ok := m[k]; ok {
			out = append(out, k)
		}
	}
	return out
}
`)
	finding := pkgDir(t, `package p

import "fmt"

// Render lists m in map order, which Go randomizes per run.
func Render(m map[string]int) []string {
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	return out
}
`)
	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		stdout     string
		stderr     string
		noFindings bool
	}{
		{name: "unknown flag", args: []string{"-bogus"}, code: 2, stderr: "flag provided but not defined: -bogus"},
		{name: "bad -V value", args: []string{"-V=short"}, code: 2, stderr: `unsupported -V value "short"`},
		{name: "no package", args: nil, code: 1, stderr: "usage: detlint"},
		{name: "handshake version", args: []string{"-V=full"}, code: 0, stdout: " version devel "},
		{name: "handshake flags", args: []string{"-flags"}, code: 0, stdout: "[]"},
		{name: "clean package", args: []string{clean}, code: 0, noFindings: true},
		{name: "package with a finding", args: []string{finding}, code: 2,
			stderr: filepath.Join(finding, "p.go") + ":8:2: map iteration order feeds"},
		{name: "missing directory", args: []string{filepath.Join(clean, "absent")}, code: 1, stderr: "no such file or directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := detlint(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.stderr)
			}
			if tc.noFindings && stderr != "" {
				t.Errorf("clean run printed %q", stderr)
			}
		})
	}
}
