package fuzz_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/fuzz"
)

// fuzzPin is the part of a fuzz.Result the pin file records: the
// accounting, the coverage digest, a hash of the kept inputs, and every
// violation with an FNV-64a hash of its rendered counterexample path.
type fuzzPin struct {
	Steps, Schedules, Rounds, NewCoverageInputs int
	CoverageDigest, CorpusHash                  string
	Violations                                  []string
}

func pinOfFuzz(r *fuzz.Result) fuzzPin {
	p := fuzzPin{
		Steps: r.Steps, Schedules: r.Schedules, Rounds: r.Rounds, NewCoverageInputs: r.NewCoverageInputs,
		CoverageDigest: r.CoverageDigest,
	}
	h := fnv.New64a()
	for _, s := range r.Corpus {
		h.Write([]byte(fuzz.EncodeSchedule(s)))
	}
	p.CorpusHash = fmt.Sprintf("%016x", h.Sum64())
	for _, v := range r.Violations {
		h := fnv.New64a()
		for _, st := range v.Path {
			fmt.Fprintln(h, st.String())
		}
		p.Violations = append(p.Violations, fmt.Sprintf("%s: %s [%d steps, %016x]", v.Property, v.Desc, len(v.Path), h.Sum64()))
	}
	return p
}

// TestFuzzPins pins Fuzz (and the uniform control arm) to the values the
// fuzzer produced before its RNGs moved to stats.NewRand: S6 at budget
// 20,000 and NAS-timed S1 with its timer pool, each at one and four
// workers. Every output stream — accounting, coverage, kept inputs,
// violations and their paths — must stay bit-identical. Refresh
// intentionally with:
//
//	go test ./internal/fuzz -run TestFuzzPins -update
func TestFuzzPins(t *testing.T) {
	s6 := core.S6World(false)
	timed, err := core.WithTiming(core.S1World(false), core.TimingNAS)
	if err != nil {
		t.Fatal(err)
	}
	timedOpt := fuzz.Options{
		Budget:    20000,
		Pool:      timed.Scenario.Events(timed.World),
		TimerPool: timed.World.TimerEvents(),
	}
	if len(timedOpt.TimerPool) == 0 {
		t.Fatal("NAS-timed S1 has no timer pool")
	}

	got := map[string]fuzzPin{}
	for _, workers := range []int{1, 4} {
		opt := fuzz.Options{Budget: 20000, Workers: workers}
		r, err := fuzz.Fuzz(s6.World, s6.Props, opt)
		if err != nil {
			t.Fatalf("s6 workers=%d: %v", workers, err)
		}
		got[fmt.Sprintf("s6 workers=%d", workers)] = pinOfFuzz(r)

		opt = timedOpt
		opt.Workers = workers
		if r, err = fuzz.Fuzz(timed.World, timed.Props, opt); err != nil {
			t.Fatalf("s1-timed-nas workers=%d: %v", workers, err)
		}
		got[fmt.Sprintf("s1-timed-nas workers=%d", workers)] = pinOfFuzz(r)
	}
	r, err := fuzz.RandomBaseline(s6.World, s6.Props, fuzz.Options{Budget: 20000})
	if err != nil {
		t.Fatalf("s6 baseline: %v", err)
	}
	got["s6 baseline"] = pinOfFuzz(r)

	path := filepath.Join("testdata", "pins", "fuzz.json")
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]fuzzPin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%s pins %d runs, test made %d", path, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s differs from the pin:\n got %+v\nwant %+v", path, name, g, w)
		}
	}
}
