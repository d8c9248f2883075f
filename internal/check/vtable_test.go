package check

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// vtOp is one reference-model operation: mark key #Key at depth Depth.
// testing/quick generates random sequences of these; keys are drawn
// from a small alphabet so sequences revisit states (the interesting
// paths: rediscovery, min-depth improvement, fingerprint collision).
type vtOp struct {
	Key   uint8
	Depth uint8
}

// vtKey derives a (hash, encoding) pair for a reference key. Keys pair
// up on fingerprints — 2k and 2k+1 share fp k+1 with distinct low hash
// bits and distinct encodings — so every sequence exercises the
// collision backstop.
func vtKey(k uint8) (h uint64, enc []byte) {
	fp := uint64(k/2 + 1)
	return fp<<vtDepthBits | uint64(k), []byte(fmt.Sprintf("state-encoding-%03d", k))
}

// vtRefMark is the reference model: a plain min-depth map keyed by the
// state key.
func vtRefMark(ref map[string]int, key string, depth int) markResult {
	prior, ok := ref[key]
	if !ok {
		ref[key] = depth
		return markResult{isNew: true, expand: true}
	}
	if depth < prior {
		ref[key] = depth
		return markResult{expand: true}
	}
	return markResult{}
}

// TestVTableMatchesReferenceMap checks the fingerprint table against
// the reference map over random operation sequences, via testing/quick.
func TestVTableMatchesReferenceMap(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		prop := func(ops []vtOp) bool {
			v := newVisitedTable(false, 0, nil, 4)
			ref := make(map[string]int)
			for _, op := range ops {
				h, enc := vtKey(op.Key)
				depth := int(op.Depth)
				got, err := v.mark(h, enc, depth)
				if err != nil {
					t.Logf("mark error: %v", err)
					return false
				}
				want := vtRefMark(ref, string(enc), depth)
				if got != want {
					t.Logf("key %d depth %d: got %+v want %+v", op.Key, depth, got, want)
					return false
				}
			}
			if v.size() != len(ref) {
				t.Logf("size %d, reference %d", v.size(), len(ref))
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

// TestVTableGrowthKeepsEntries inserts far more states than the initial
// table holds (sequentially), forcing repeated shard growth, and then
// verifies every entry survived the rehashes with its minimal depth:
// re-marking at the recorded min is a no-op, one shallower expands.
func TestVTableGrowthKeepsEntries(t *testing.T) {
	v := newVisitedTable(false, 0, nil, 4)
	const n = 5000
	rng := rand.New(rand.NewSource(7))
	min := make([]int, n) // key k's minimal depth; 0 until marked (depths start at 2)
	for round := 0; round < 3; round++ {
		for k := 0; k < n; k++ {
			depth := rng.Intn(500) + 2
			h := uint64(k+1)<<vtDepthBits | uint64(k)
			enc := []byte(fmt.Sprintf("grow-%05d", k))
			if _, err := v.mark(h, enc, depth); err != nil {
				t.Fatal(err)
			}
			if d := min[k]; d == 0 || depth < d {
				min[k] = depth
			}
		}
	}
	if v.size() != n {
		t.Fatalf("size %d after growth, want %d", v.size(), n)
	}
	for k, d := range min {
		h := uint64(k+1)<<vtDepthBits | uint64(k)
		enc := []byte(fmt.Sprintf("grow-%05d", k))
		m, err := v.mark(h, enc, d)
		if err != nil {
			t.Fatal(err)
		}
		if m.isNew || m.expand {
			t.Fatalf("key %d lost its min depth %d across growth: %+v", k, d, m)
		}
		if m, _ = v.mark(h, enc, d-1); !m.expand || m.isNew {
			t.Fatalf("key %d at depth %d-1: want depth improvement, got %+v", k, d, m)
		}
	}
	s := v.stats()
	if s.Live != n {
		t.Fatalf("stats.Live = %d, want %d", s.Live, n)
	}
	if s.Grows == 0 {
		t.Fatal("expected table growth from 4 slots")
	}
	if s.ArenaBytes == 0 {
		t.Fatal("exact mode retained no arena bytes")
	}
}

// TestVTableRaceHammer is the concurrent torture test: workers hammer
// overlapping key ranges with clashing depths into a table starting at
// minimum size, so claims, min-depth merges and shard growth all
// contend for the shard locks. Afterwards the table must hold exactly
// the distinct keys, each at the global minimum depth. Run under -race
// this also checks that every slot, ref and key access is guarded.
func TestVTableRaceHammer(t *testing.T) {
	const (
		workers = 8
		keys    = 4000
	)
	v := newVisitedTable(false, 0, nil, 4)
	depth := func(k, g int) int { return (k*7+g*13)%97 + 2 }
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, k := range rng.Perm(keys) {
				h := uint64(k+1)<<vtDepthBits | uint64(k)
				enc := []byte(fmt.Sprintf("hammer-%05d", k))
				if _, err := v.mark(h, enc, depth(k, g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v.size() != keys {
		t.Fatalf("size %d after concurrent inserts, want %d", v.size(), keys)
	}
	if s := v.stats(); s.Live != keys {
		t.Fatalf("stats.Live = %d, want %d", s.Live, keys)
	}
	for k := 0; k < keys; k++ {
		best := depth(k, 0)
		for g := 1; g < workers; g++ {
			if d := depth(k, g); d < best {
				best = d
			}
		}
		h := uint64(k+1)<<vtDepthBits | uint64(k)
		enc := []byte(fmt.Sprintf("hammer-%05d", k))
		m, err := v.mark(h, enc, best)
		if err != nil {
			t.Fatal(err)
		}
		if m.isNew || m.expand {
			t.Fatalf("key %d: min depth %d not retained: %+v", k, best, m)
		}
	}
}

// TestVTableExactCollisionBackstop pins the exactness backstop: two
// distinct encodings sharing a fingerprint are kept as two states, and
// paranoid mode reports the collision as an error instead.
func TestVTableExactCollisionBackstop(t *testing.T) {
	h := uint64(42) << vtDepthBits
	a, b := []byte("state-A"), []byte("state-B")

	v := newVisitedTable(false, 0, nil, 16)
	if m, err := v.mark(h, a, 3); err != nil || !m.isNew {
		t.Fatalf("first state: %+v, %v", m, err)
	}
	if m, err := v.mark(h, b, 3); err != nil || !m.isNew {
		t.Fatalf("colliding state not separated: %+v, %v", m, err)
	}
	if m, err := v.mark(h, a, 5); err != nil || m.isNew || m.expand {
		t.Fatalf("revisit of first state after collision: %+v, %v", m, err)
	}
	if v.size() != 2 {
		t.Fatalf("size %d, want 2 distinct states", v.size())
	}

	p := newVisitedTable(true, 0, nil, 16)
	if _, err := p.mark(h, a, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.mark(h, b, 3); err == nil {
		t.Fatal("paranoid mode accepted a fingerprint collision")
	} else if !strings.Contains(err.Error(), "collision") {
		t.Fatalf("unexpected collision error: %v", err)
	}
}

// TestVTableCaps pins MaxStates and Budget enforcement: refusals are
// capped, do not consume tokens, and leave the table at the limit.
func TestVTableCaps(t *testing.T) {
	v := newVisitedTable(false, 3, nil, 16)
	for k := 0; k < 3; k++ {
		if m, _ := v.mark(uint64(k+1)<<vtDepthBits, []byte{byte(k)}, 1); !m.isNew {
			t.Fatalf("state %d refused below the cap: %+v", k, m)
		}
	}
	if m, _ := v.mark(uint64(99)<<vtDepthBits, []byte{99}, 1); !m.capped {
		t.Fatalf("state over MaxStates not capped: %+v", m)
	}
	// Rediscovery of a recorded state still works at the cap.
	if m, _ := v.mark(uint64(1)<<vtDepthBits, []byte{0}, 0); !m.expand || m.isNew {
		t.Fatalf("min-depth merge at the cap: %+v", m)
	}
	if v.size() != 3 {
		t.Fatalf("size %d, want 3", v.size())
	}

	b := NewBudget(2)
	vb := newVisitedTable(false, 0, b, 16)
	for k := 0; k < 2; k++ {
		if m, _ := vb.mark(uint64(k+1)<<vtDepthBits, []byte{byte(k)}, 1); !m.isNew {
			t.Fatalf("state %d refused with budget left: %+v", k, m)
		}
	}
	if m, _ := vb.mark(uint64(99)<<vtDepthBits, []byte{99}, 1); !m.capped {
		t.Fatalf("state over Budget not capped: %+v", m)
	}
	if b.Remaining() != 0 {
		t.Fatalf("budget remaining %d, want 0", b.Remaining())
	}
}

// TestVTableConcurrentCaps pins MaxStates and Budget enforcement under
// concurrent marking: 8 goroutines mark disjoint keys, and exactly the
// capped number of them are recorded, with no token left over or
// overspent.
func TestVTableConcurrentCaps(t *testing.T) {
	const (
		workers = 8
		perG    = 400
		limit   = 1000
	)
	b := NewBudget(limit)
	for _, tc := range []struct {
		name string
		v    *visitedTable
	}{
		{"MaxStates", newVisitedTable(false, limit, nil, 4)},
		{"Budget", newVisitedTable(false, 0, b, 4)},
	} {
		name, v := tc.name, tc.v
		var (
			wg          sync.WaitGroup
			mu          sync.Mutex
			isNew, capd int
		)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				n, c := 0, 0
				for i := 0; i < perG; i++ {
					k := g*perG + i
					m, err := v.mark(uint64(k+1)<<vtDepthBits|uint64(k), []byte(fmt.Sprintf("cap-%05d", k)), 1)
					if err != nil {
						t.Error(err)
						return
					}
					if m.isNew {
						n++
					}
					if m.capped {
						c++
					}
				}
				mu.Lock()
				isNew, capd = isNew+n, capd+c
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		if isNew != limit || capd != workers*perG-limit {
			t.Errorf("%s: %d new, %d capped; want %d and %d", name, isNew, capd, limit, workers*perG-limit)
		}
		if v.size() != limit {
			t.Errorf("%s: size %d, want %d", name, v.size(), limit)
		}
		if s := v.stats(); s.Live != limit {
			t.Errorf("%s: stats.Live = %d, want %d", name, s.Live, limit)
		}
	}
	if b.Remaining() != 0 {
		t.Errorf("budget remaining %d, want 0", b.Remaining())
	}
}
