package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// The permutation-invariance suite: EncodeCanonical must be a complete
// invariant of replica permutation — equal bytes for permuted states
// (soundness of the quotient search merging them) and distinct bytes
// for states that no permutation relates (exactness: nothing else is
// merged). The worlds here are built by hand so the test owns both
// sides: it constructs pi(w) directly instead of trusting any search.

// symDevSpec is the device half of one replica: it dials its
// instance-local peer, tracks a local var and a namespaced global, and
// is kicked back to OFF by the shared hub's broadcast.
func symDevSpec(peer string) *fsm.Spec {
	return &fsm.Spec{
		Name: "sdev",
		Init: "OFF",
		Vars: map[string]int{"tries": 0},
		Transitions: []fsm.Transition{
			{Name: "dial", From: "OFF", On: types.MsgPowerOn, To: "REQ",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("tries", c.Get("tries")+1)
					c.Set("g.state", 1)
					c.Send(peer, types.Message{Kind: types.MsgUserDataOn})
				}},
			{Name: "ack", From: "REQ", On: types.MsgPowerOn, To: "ON",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("g.state", 2)
				}},
			{Name: "kick", From: "ON", On: types.MsgUserMove, To: "OFF",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("g.state", 0)
				}},
			{Name: "kicked-early", From: "REQ", On: types.MsgUserMove, To: "REQ"},
		},
	}
}

// symPeerSpec is the serving half of one replica: it acks the device
// and counts served requests in a namespaced global.
func symPeerSpec(dev string) *fsm.Spec {
	serve := func(c fsm.Ctx, e fsm.Event) {
		c.Set("g.served", c.Get("g.served")+1)
		c.Send(dev, types.Message{Kind: types.MsgPowerOn})
	}
	return &fsm.Spec{
		Name: "speer",
		Init: "WAIT",
		Transitions: []fsm.Transition{
			{Name: "serve", From: "WAIT", On: types.MsgUserDataOn, To: "BOUND", Action: serve},
			{Name: "reserve", From: "BOUND", On: types.MsgUserDataOn, To: "BOUND", Action: serve},
		},
	}
}

// symHubSpec is shared infrastructure outside every replica: its
// broadcast treats all devices alike (the equivariance precondition),
// and its messages land in replica queues with a non-replica sender —
// the by-name branch of the replica-relative queue encoding.
func symHubSpec(devs []string) *fsm.Spec {
	return &fsm.Spec{
		Name: "shub",
		Init: "IDLE",
		Vars: map[string]int{"kicks": 0},
		Transitions: []fsm.Transition{
			{Name: "broadcast", From: "IDLE", On: types.MsgUserMove, To: "IDLE",
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Set("kicks", c.Get("kicks")+1)
					c.Set("g.total", c.Get("g.total")+1)
					for _, d := range devs {
						c.Send(d, types.Message{Kind: types.MsgUserMove})
					}
				}},
		},
	}
}

func symDevName(k int) string  { return fmt.Sprintf("d%d", k) }
func symPeerName(k int) string { return fmt.Sprintf("p%d", k) }
func symNS(k int) string       { return fmt.Sprintf("u%d", k) }

// newSymWorld builds n replicas (device + peer each, namespace "u<k>")
// plus a shared hub, attaches the matching Symmetry descriptor and
// returns the scenario events.
func newSymWorld(t testing.TB, n int) (*World, []EnvEvent) {
	t.Helper()
	var devs []string
	for k := 1; k <= n; k++ {
		devs = append(devs, symDevName(k))
	}
	procs := []ProcConfig{{Name: "hub", Spec: symHubSpec(devs)}}
	events := []EnvEvent{{Proc: "hub", Msg: types.Message{Kind: types.MsgUserMove}}}
	g := SymGroup{}
	for k := 1; k <= n; k++ {
		d, p, ns := symDevName(k), symPeerName(k), symNS(k)
		procs = append(procs,
			ProcConfig{Name: d, Spec: fsm.NamespaceGlobals(symDevSpec(p), ns)},
			ProcConfig{Name: p, Spec: fsm.NamespaceGlobals(symPeerSpec(d), ns)},
		)
		events = append(events, EnvEvent{Proc: d, Msg: types.Message{Kind: types.MsgPowerOn}})
		g.Replicas = append(g.Replicas, SymReplica{
			Procs: []string{d, p},
			NS:    ns,
			Atoms: []string{d, p},
		})
	}
	w, err := New(Config{Procs: procs, Globals: map[string]int{"g.total": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetSymmetry(&Symmetry{Groups: []SymGroup{g}}); err != nil {
		t.Fatal(err)
	}
	return w, events
}

// driveSym applies one enabled step per input byte (byte mod the
// enabled count), so a byte string is a deterministic schedule.
func driveSym(t testing.TB, w *World, events []EnvEvent, data []byte) {
	t.Helper()
	for _, b := range data {
		steps := w.Steps(events)
		if len(steps) == 0 {
			return
		}
		if _, err := w.Apply(steps[int(b)%len(steps)]); err != nil {
			t.Fatal(err)
		}
	}
}

// permuteSymWorld constructs pi(w) from scratch: a fresh n-replica
// world whose replica k carries the machine states, queues and
// namespaced globals of w's replica perm[k]^-1 — i.e. replica k of w
// lands at position perm[k] — with message endpoints renamed
// accordingly. Shared state (hub, un-namespaced globals) copies
// positionally.
func permuteSymWorld(t testing.TB, w *World, n int, perm []int) *World {
	t.Helper()
	pw, _ := newSymWorld(t, n)
	ren := make(map[string]string, 2*n)
	nsRen := make(map[string]string, n)
	for k := 0; k < n; k++ {
		ren[symDevName(k+1)] = symDevName(perm[k] + 1)
		ren[symPeerName(k+1)] = symPeerName(perm[k] + 1)
		nsRen["g."+symNS(k+1)+"."] = "g." + symNS(perm[k]+1) + "."
	}
	rename := func(s string) string {
		if v, ok := ren[s]; ok {
			return v
		}
		return s
	}
	for _, sp := range w.Procs {
		dp := pw.Proc(rename(sp.Name))
		dp.M.SetState(sp.M.State())
		for name := range sp.M.Spec().Vars {
			dp.M.SetVar(name, sp.M.Var(name))
		}
		sc, dc := w.Chan(sp.Name), pw.Chan(dp.Name)
		for _, m := range sc.Messages() {
			m.From = rename(m.From)
			m.To = rename(m.To)
			dc.Push(m)
		}
	}
	for name, v := range w.GlobalsMap() {
		out := name
		for from, to := range nsRen {
			if strings.HasPrefix(name, from) {
				out = to + name[len(from):]
				break
			}
		}
		pw.SetGlobal(out, v)
	}
	return pw
}

// allPerms enumerates the permutations of [0..n).
func allPerms(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range allPerms(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// TestCanonicalEncodingPermutationInvariant is the soundness half:
// for random reachable states w and EVERY permutation pi, the
// canonical encoding, hash, key and key fingerprint of pi(w) equal
// those of w.
func TestCanonicalEncodingPermutationInvariant(t *testing.T) {
	const n = 3
	perms := allPerms(n)
	prop := func(data []byte) bool {
		w, events := newSymWorld(t, n)
		if len(data) > 14 {
			data = data[:14]
		}
		driveSym(t, w, events, data)
		base := append([]byte(nil), w.EncodeCanonical(nil)...)
		baseHash := w.CanonicalHash()
		in := NewInterner()
		baseFP, baseKey := w.AppendCanonicalKey(in, nil)
		for _, perm := range perms {
			pw := permuteSymWorld(t, w, n, perm)
			if !bytes.Equal(base, pw.EncodeCanonical(nil)) {
				t.Logf("schedule %v perm %v: canonical encodings differ", data, perm)
				return false
			}
			if pw.CanonicalHash() != baseHash {
				t.Logf("schedule %v perm %v: canonical hashes differ", data, perm)
				return false
			}
			if fp, key := pw.AppendCanonicalKey(in, nil); fp != baseFP || !bytes.Equal(key, baseKey) {
				t.Logf("schedule %v perm %v: canonical keys or fingerprints differ", data, perm)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20140817))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalCollapsesWhatPlainDistinguishes pins the point of the
// exercise on a concrete pair: power on only d1 vs only d2. The plain
// encodings differ (the test would be vacuous otherwise), the
// canonical ones agree.
func TestCanonicalCollapsesWhatPlainDistinguishes(t *testing.T) {
	w1, ev1 := newSymWorld(t, 3)
	w2, ev2 := newSymWorld(t, 3)
	driveSym(t, w1, ev1[:2], []byte{1}) // env PowerOn -> d1
	driveSym(t, w2, ev2[:3], []byte{2}) // env PowerOn -> d2
	if w1.Hash() == w2.Hash() {
		t.Fatal("plain hashes agree; states should be distinguishable")
	}
	if !bytes.Equal(w1.EncodeCanonical(nil), w2.EncodeCanonical(nil)) {
		t.Fatal("canonical encodings differ for permuted states")
	}
	if w1.CanonicalHash() != w2.CanonicalHash() {
		t.Fatal("canonical hashes differ for permuted states")
	}
}

// TestCanonicalDistinguishesNonEquivalent is the exactness half:
// states that no replica permutation relates must keep distinct
// canonical encodings.
func TestCanonicalDistinguishesNonEquivalent(t *testing.T) {
	fresh := func() *World {
		w, _ := newSymWorld(t, 3)
		return w
	}
	base := fresh()

	// Multiset {7,8} vs {8,7} across replicas IS permutation-equivalent.
	w1, w2 := fresh(), fresh()
	w1.SetGlobal("g.u1.state", 7)
	w1.SetGlobal("g.u2.state", 8)
	w2.SetGlobal("g.u1.state", 8)
	w2.SetGlobal("g.u2.state", 7)
	if w1.CanonicalHash() != w2.CanonicalHash() {
		t.Fatal("swapped replica globals should canonicalize identically")
	}

	// ...but {7,8} vs {7,7} is not.
	w3 := fresh()
	w3.SetGlobal("g.u1.state", 7)
	w3.SetGlobal("g.u2.state", 7)
	if bytes.Equal(w1.EncodeCanonical(nil), w3.EncodeCanonical(nil)) {
		t.Fatal("different global multisets canonicalize identically")
	}

	// A replica-local machine var is part of the sub-encoding.
	w4 := fresh()
	w4.Proc(symDevName(1)).M.SetVar("tries", 5)
	if bytes.Equal(base.EncodeCanonical(nil), w4.EncodeCanonical(nil)) {
		t.Fatal("replica var change not reflected in canonical encoding")
	}

	// Shared globals sit outside every span and are compared verbatim.
	w5 := fresh()
	w5.SetGlobal("g.total", 3)
	if bytes.Equal(base.EncodeCanonical(nil), w5.EncodeCanonical(nil)) {
		t.Fatal("shared global change not reflected in canonical encoding")
	}

	// So is non-replica (hub) machine state.
	w6 := fresh()
	w6.Proc("hub").M.SetVar("kicks", 2)
	if bytes.Equal(base.EncodeCanonical(nil), w6.EncodeCanonical(nil)) {
		t.Fatal("hub var change not reflected in canonical encoding")
	}

	// And queued messages: an in-flight intra-replica ack.
	w7 := fresh()
	w7.Chan(symDevName(1)).Push(
		types.Message{Kind: types.MsgPowerOn, From: symPeerName(1), To: symDevName(1)})
	if bytes.Equal(base.EncodeCanonical(nil), w7.EncodeCanonical(nil)) {
		t.Fatal("queued message not reflected in canonical encoding")
	}
}

// TestCanonicalWithoutDescriptorIsPlain: no descriptor, EncodeCanonical
// degenerates to Encode; detaching restores that.
func TestCanonicalWithoutDescriptorIsPlain(t *testing.T) {
	w := pingPongWorld(t, false)
	if !bytes.Equal(w.Encode(nil), w.EncodeCanonical(nil)) {
		t.Fatal("EncodeCanonical != Encode on a world without a descriptor")
	}
	if w.Hash() != w.CanonicalHash() {
		t.Fatal("CanonicalHash != Hash on a world without a descriptor")
	}
	ws, ev := newSymWorld(t, 2)
	driveSym(t, ws, ev, []byte{1, 0, 2})
	if err := ws.SetSymmetry(nil); err != nil {
		t.Fatal(err)
	}
	if ws.Symmetry() != nil {
		t.Fatal("SetSymmetry(nil) did not detach the descriptor")
	}
	if !bytes.Equal(ws.Encode(nil), ws.EncodeCanonical(nil)) {
		t.Fatal("EncodeCanonical != Encode after detaching the descriptor")
	}
}

func TestSetSymmetryValidation(t *testing.T) {
	rep := func(k int) SymReplica {
		return SymReplica{
			Procs: []string{symDevName(k), symPeerName(k)},
			NS:    symNS(k),
			Atoms: []string{symDevName(k)},
		}
	}
	cases := []struct {
		name string
		sym  *Symmetry
	}{
		{"empty group", &Symmetry{Groups: []SymGroup{{}}}},
		{"role count mismatch", &Symmetry{Groups: []SymGroup{{Replicas: []SymReplica{
			rep(1), {Procs: []string{symDevName(2)}, NS: symNS(2)},
		}}}}},
		{"empty namespace", &Symmetry{Groups: []SymGroup{{Replicas: []SymReplica{
			{Procs: []string{symDevName(1), symPeerName(1)}, NS: ""},
		}}}}},
		{"duplicate namespace", &Symmetry{Groups: []SymGroup{{Replicas: []SymReplica{
			rep(1), {Procs: []string{symDevName(2), symPeerName(2)}, NS: symNS(1)},
		}}}}},
		{"unknown process", &Symmetry{Groups: []SymGroup{{Replicas: []SymReplica{
			{Procs: []string{"nobody", symPeerName(1)}, NS: symNS(1)},
		}}}}},
		{"process in two replicas", &Symmetry{Groups: []SymGroup{{Replicas: []SymReplica{
			rep(1), {Procs: []string{symDevName(1), symPeerName(2)}, NS: symNS(2)},
		}}}}},
	}
	for _, tc := range cases {
		w, _ := newSymWorld(t, 2)
		if err := w.SetSymmetry(tc.sym); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestProjectFiltersSymmetry: POR projections keep exactly the
// replicas they contain, so cluster sub-worlds canonicalize their own
// state and nothing else.
func TestProjectFiltersSymmetry(t *testing.T) {
	w, _ := newSymWorld(t, 3)

	// One replica plus the hub: a single-replica group survives.
	pw, err := w.Project([]string{symDevName(2), symPeerName(2), "hub"})
	if err != nil {
		t.Fatal(err)
	}
	sym := pw.Symmetry()
	if sym == nil || len(sym.Groups) != 1 || len(sym.Groups[0].Replicas) != 1 {
		t.Fatalf("projection descriptor = %+v, want one group with one replica", sym)
	}
	if got := sym.Groups[0].Replicas[0].NS; got != symNS(2) {
		t.Fatalf("projection kept namespace %q, want %q", got, symNS(2))
	}

	// Two whole replicas: both survive and still canonicalize.
	pw2, err := w.Project([]string{
		symDevName(1), symPeerName(1), symDevName(3), symPeerName(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sym := pw2.Symmetry(); sym == nil || len(sym.Groups[0].Replicas) != 2 {
		t.Fatalf("projection descriptor = %+v, want two replicas", sym)
	}

	// A split replica is dropped; hub alone keeps no descriptor.
	pw3, err := w.Project([]string{symDevName(1), "hub"})
	if err != nil {
		t.Fatal(err)
	}
	if sym := pw3.Symmetry(); sym != nil {
		t.Fatalf("projection with a split replica kept descriptor %+v", sym)
	}
}

// TestCloneSharesSymmetry: clones carry the resolved descriptor
// (CloneInto preserves process order) and encode identically.
func TestCloneSharesSymmetry(t *testing.T) {
	w, ev := newSymWorld(t, 3)
	driveSym(t, w, ev, []byte{0, 1, 2, 3})
	c := w.Clone()
	if c.Symmetry() != w.Symmetry() {
		t.Fatal("clone does not share the symmetry descriptor")
	}
	if !bytes.Equal(w.EncodeCanonical(nil), c.EncodeCanonical(nil)) {
		t.Fatal("clone canonical encoding differs from original")
	}
}

// TestAppendCanonicalHashAllocFree: canonicalization must match the
// plain encoder's hot-path contract — steady state allocates nothing.
func TestAppendCanonicalHashAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	w, ev := newSymWorld(t, 3)
	driveSym(t, w, ev, []byte{1, 0, 2, 4, 3, 1, 0, 2})
	var buf []byte
	for i := 0; i < 3; i++ { // warm scratch, sub buffers and machine memos
		_, buf = w.AppendCanonicalHash(buf)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		_, buf = w.AppendCanonicalHash(buf)
	}); allocs != 0 {
		t.Fatalf("AppendCanonicalHash allocates %.1f per call in steady state", allocs)
	}
}

// --- timing × symmetry -------------------------------------------------

// timedSymDefs declares one replica-agnostic guard timer per device
// replica (same name, same window, same within-replica position — the
// EnableTiming contract for canonicalized worlds) plus a periodic hub
// timer owned by the shared infrastructure (the rest-partition path of
// the canonical timer encoding).
func timedSymDefs(n int) []TimerDef {
	var defs []TimerDef
	for k := 1; k <= n; k++ {
		defs = append(defs, TimerDef{
			Name: "Trep", Proc: symDevName(k),
			Msg: types.Message{Kind: types.MsgUserMove},
			Lo:  2, Hi: 7, ArmOnStart: true,
			ArmOn: []string{"dial"}, CancelOn: []string{"ack"},
		})
	}
	defs = append(defs, TimerDef{
		Name: "Thub", Proc: "hub",
		Msg: types.Message{Kind: types.MsgUserMove},
		Lo:  1, Hi: 9, ArmOnStart: true, Periodic: true,
	})
	return defs
}

func newTimedSymWorld(t testing.TB, n int) (*World, []EnvEvent) {
	w, events := newSymWorld(t, n)
	if err := w.EnableTiming(timedSymDefs(n)); err != nil {
		t.Fatal(err)
	}
	return w, events
}

// permuteTimedSymWorld extends permuteSymWorld to the timing state:
// replica k's armed timer lands at position perm[k] (the hub timer is
// positionally fixed), with its absolute window copied verbatim.
func permuteTimedSymWorld(t testing.TB, w *World, n int, perm []int) *World {
	t.Helper()
	pw := permuteSymWorld(t, w, n, perm)
	if err := pw.EnableTiming(timedSymDefs(n)); err != nil {
		t.Fatal(err)
	}
	pw.now = w.now
	pw.timers = pw.timers[:0]
	for _, tm := range w.timers {
		d := tm.def
		if int(d) < n {
			d = int32(perm[d])
		}
		pw.timers = append(pw.timers, armedTimer{def: d, arm: tm.arm, lo: tm.lo, hi: tm.hi})
	}
	sort.Slice(pw.timers, func(i, j int) bool { return pw.timers[i].def < pw.timers[j].def })
	return pw
}

// TestCanonicalTimedPermutationInvariant extends the soundness half to
// virtual time: for random reachable timed states (the drive fires,
// hook-arms and hook-cancels timers along the way) and EVERY replica
// permutation, the canonical encoding, hash, key and fingerprint of
// pi(w) equal w's —
// per-replica armed timers fold into the permuted sub-encodings.
func TestCanonicalTimedPermutationInvariant(t *testing.T) {
	const n = 3
	perms := allPerms(n)
	prop := func(data []byte) bool {
		w, events := newTimedSymWorld(t, n)
		if len(data) > 14 {
			data = data[:14]
		}
		driveSym(t, w, events, data)
		base := append([]byte(nil), w.EncodeCanonical(nil)...)
		baseHash := w.CanonicalHash()
		in := NewInterner()
		baseFP, baseKey := w.AppendCanonicalKey(in, nil)
		for _, perm := range perms {
			pw := permuteTimedSymWorld(t, w, n, perm)
			if !bytes.Equal(base, pw.EncodeCanonical(nil)) {
				t.Logf("schedule %v perm %v: timed canonical encodings differ", data, perm)
				return false
			}
			if pw.CanonicalHash() != baseHash {
				t.Logf("schedule %v perm %v: timed canonical hashes differ", data, perm)
				return false
			}
			if fp, key := pw.AppendCanonicalKey(in, nil); fp != baseFP || !bytes.Equal(key, baseKey) {
				t.Logf("schedule %v perm %v: timed canonical keys or fingerprints differ", data, perm)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20140817))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalTimedCollapsesAndDistinguishes pins both halves on
// concrete states: "only d1's timer disarmed" and "only d2's timer
// disarmed" are permutation-equivalent (plain encodings differ, the
// canonical ones agree), while a changed armed window or a disarmed
// hub timer must stay distinguishable from the base state.
func TestCanonicalTimedCollapsesAndDistinguishes(t *testing.T) {
	const n = 3
	fresh := func() *World {
		w, _ := newTimedSymWorld(t, n)
		return w
	}
	base := fresh()

	w1, w2 := fresh(), fresh()
	w1.cancelTimer(0) // disarm d1's guard
	w2.cancelTimer(1) // disarm d2's guard
	if bytes.Equal(w1.Encode(nil), w2.Encode(nil)) {
		t.Fatal("plain encodings agree; the collapse check would be vacuous")
	}
	if !bytes.Equal(w1.EncodeCanonical(nil), w2.EncodeCanonical(nil)) {
		t.Fatal("canonical encodings differ for permuted armed-timer sets")
	}
	if w1.CanonicalHash() != w2.CanonicalHash() {
		t.Fatal("canonical hashes differ for permuted armed-timer sets")
	}
	if bytes.Equal(base.EncodeCanonical(nil), w1.EncodeCanonical(nil)) {
		t.Fatal("disarming a replica timer not reflected in canonical encoding")
	}

	w3 := fresh()
	w3.timers[0].lo++ // d1's guard window shrinks by one tick
	if bytes.Equal(base.EncodeCanonical(nil), w3.EncodeCanonical(nil)) {
		t.Fatal("changed armed window not reflected in canonical encoding")
	}

	w4 := fresh()
	w4.cancelTimer(int32(n)) // the hub timer sits in the rest partition
	if bytes.Equal(base.EncodeCanonical(nil), w4.EncodeCanonical(nil)) {
		t.Fatal("disarming the hub timer not reflected in canonical encoding")
	}
}
