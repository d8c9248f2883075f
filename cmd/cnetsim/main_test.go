package main

import (
	"reflect"
	"strings"
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/netemu"
)

func TestParseLossGrid(t *testing.T) {
	cases := []struct {
		spec string
		want []float64
		err  bool
	}{
		{"0:0.5:0.1", []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}, false},
		{"0:0.3:0.15", []float64{0, 0.15, 0.3}, false},
		{"0.05:0.05:0.05", []float64{0.05}, false},
		{"0,0.1,0.3", []float64{0, 0.1, 0.3}, false},
		{"0.25", []float64{0.25}, false},
		{"", nil, false},
		{"0:0.5", nil, true},       // not three fields
		{"0:0.5:0", nil, true},     // zero step
		{"0.5:0.1:0.1", nil, true}, // end before start
		{"0:1:0.5", nil, true},     // 100% loss can never terminate a handshake
		{"a,b", nil, true},
		{"-0.1", nil, true},
		{"NaN", nil, true},
		{"0.1,NaN", nil, true},
		{"Inf", nil, true},
		{"NaN:0.5:0.1", nil, true},
		{"0:NaN:0.1", nil, true},
		{"0:0.5:NaN", nil, true},
		{"0:0.5:Inf", nil, true},
		{"-Inf:0.5:0.1", nil, true},
		{"0:0.9:1e-9", nil, true},   // 9e8 points
		{"0:0.5:0.0005", nil, true}, // 1,001 points
		{strings.Repeat("0.1,", 1000) + "0.1", nil, true},
	}
	for _, tc := range cases {
		got, err := parseLossGrid(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("parseLossGrid(%q) accepted, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseLossGrid(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseLossGrid(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	// The largest grid allowed: 1,000 points, its end point included.
	got, err := parseLossGrid("0:0.999:0.001")
	if err != nil || len(got) != 1000 || got[999] != 0.999 {
		t.Errorf("parseLossGrid(0:0.999:0.001): %d points, %v; want 1000 ending 0.999", len(got), err)
	}
}

func TestParseFindings(t *testing.T) {
	got, err := parseFindings("s1, S4 ,s6")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.FindingID{core.S1, core.S4, core.S6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if empty, err := parseFindings(""); err != nil || empty != nil {
		t.Fatalf("empty spec: %v, %v", empty, err)
	}
	if _, err := parseFindings("S7"); err == nil {
		t.Fatal("S7 accepted")
	}
}

func TestParseProfile(t *testing.T) {
	for _, name := range []string{"OP-I", "op-ii"} {
		p, err := parseProfile(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if p.NASRetrans.RTO == 0 {
			t.Fatalf("%q: profile missing NAS timers", name)
		}
	}
	if _, err := parseProfile("OP-III"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestParseFixes(t *testing.T) {
	fs, err := parseFixes("reliable,decouple")
	if err != nil {
		t.Fatal(err)
	}
	if !fs.ReliableSignaling || !fs.DomainDecoupling || fs.ParallelUpdate || fs.CrossSystem {
		t.Fatalf("fixes = %+v", fs)
	}
	all, err := parseFixes("all")
	if err != nil || all != netemu.AllFixes() {
		t.Fatalf("all = %+v, %v", all, err)
	}
	if _, err := parseFixes("magic"); err == nil {
		t.Fatal("unknown fix accepted")
	}
}
