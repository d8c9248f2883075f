package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// The delta-state suite. Restore skips components by change stamp and
// EncodeCanonical keeps replica sub-encodings between calls, so both
// are only as good as the bookkeeping behind them: a write that did not
// take a stamp would leave a stale encoding — a silent unsoundness. The
// tests here never trust that bookkeeping. They compare the live world,
// caches as warm as the run left them, against a world rebuilt from
// nothing but its observable content.

// TestHash64Vectors pins the state hash on fixed inputs: the digest is
// a function of the bytes alone, so any drift by platform, Go release
// or refactor shows up here before it shows up as -stats output or a
// probe order that no longer reproduces.
func TestHash64Vectors(t *testing.T) {
	long := make([]byte, 660) // the size of a shared4 canonical encoding
	for i := range long {
		long[i] = byte(i*131 + 7)
	}
	for _, v := range []struct {
		in   []byte
		want uint64
	}{
		{nil, 0x18c7fcc651d1587e},
		{[]byte{0}, 0x77cb7e3431657754},
		{[]byte("a"), 0xb754f4f5ae3f2b84},
		{[]byte("OFF\x00WAIT"), 0x37f3e289977e030b},
		{[]byte("12345678abcdefgh"), 0x3cb4c7953514d469},
		{long, 0xb33fc6d0199c2f1f},
	} {
		if got := hash64(v.in); got != v.want {
			t.Errorf("hash64(%d bytes %.12q) = %#x, want %#x", len(v.in), v.in, got, v.want)
		}
	}
	// Length is part of the digest: zero padding is not a collision.
	if hash64([]byte{1}) == hash64([]byte{1, 0}) || hash64(make([]byte, 8)) == hash64(make([]byte, 16)) {
		t.Error("hash64 ignores trailing zero bytes")
	}
}

// rebuild constructs x's state from scratch on a fresh sym world, timed
// if x is: nothing is shared with x — no encoding memo, scratch, key
// cache or layout.
func rebuild(t testing.TB, x *World, n int) *World {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	if x.timing == nil {
		return permuteSymWorld(t, x, n, id)
	}
	return permuteTimedSymWorld(t, x, n, id)
}

// deltaWorlds builds the worlds a delta program runs on: the timed one
// (replica pieces re-interned on every key) and the untimed one
// (replica pieces cached by stamp).
var deltaWorlds = []struct {
	name string
	make func(testing.TB, int) (*World, []EnvEvent)
}{{"timed", newTimedSymWorld}, {"untimed", newSymWorld}}

// keyLedger keys worlds under one interner and remembers, plain and
// canonical alike, which encoding each key stood for: equal keys must
// mean equal encodings and equal encodings equal keys.
type keyLedger struct {
	in           *Interner
	plain, canon map[string]string // key -> encoding
	byEnc        map[string]string // "p"/"c" + encoding -> key
}

func newKeyLedger(in *Interner) *keyLedger {
	return &keyLedger{in: in, plain: map[string]string{}, canon: map[string]string{}, byEnc: map[string]string{}}
}

// note keys x both ways and checks the two bijections.
func (l *keyLedger) note(x *World) error {
	_, key := x.AppendKey(l.in, nil)
	_, ckey := x.AppendCanonicalKey(l.in, nil)
	for _, e := range []struct {
		name      string
		seen      map[string]string
		key, enc  []byte
		encPrefix string
	}{{"plain", l.plain, key, x.Encode(nil), "p"}, {"canonical", l.canon, ckey, x.EncodeCanonical(nil), "c"}} {
		if prev, ok := e.seen[string(e.key)]; ok && prev != string(e.enc) {
			return fmt.Errorf("equal %s keys %x for two different encodings", e.name, e.key)
		}
		e.seen[string(e.key)] = string(e.enc)
		if prev, ok := l.byEnc[e.encPrefix+string(e.enc)]; ok && prev != string(e.key) {
			return fmt.Errorf("one %s encoding under two keys %x and %x", e.name, prev, e.key)
		}
		l.byEnc[e.encPrefix+string(e.enc)] = string(e.key)
	}
	return nil
}

// sameAsRebuilt reports how x's encodings, hashes, keys and
// fingerprints differ from those of its rebuilt twin and of a fresh
// Clone (whose encoder scratch was never warmed and whose key cache is
// only what CloneInto handed over), or nil. All keys are taken under
// the ledger's interner, which then checks x's keys against its
// encodings.
func sameAsRebuilt(t testing.TB, x *World, n int, buf *[]byte, led *keyLedger) error {
	for _, ref := range []struct {
		name string
		w    *World
	}{{"rebuilt", rebuild(t, x, n)}, {"clone", x.Clone()}} {
		if !bytes.Equal(x.Encode(nil), ref.w.Encode(nil)) {
			return fmt.Errorf("Encode differs from the %s world's", ref.name)
		}
		if !bytes.Equal(x.EncodeCanonical(nil), ref.w.EncodeCanonical(nil)) {
			return fmt.Errorf("EncodeCanonical differs from the %s world's", ref.name)
		}
		var h uint64
		if h, *buf = x.AppendHash(*buf); h != ref.w.Hash() {
			return fmt.Errorf("Hash differs from the %s world's", ref.name)
		}
		if h, *buf = x.AppendCanonicalHash(*buf); h != ref.w.CanonicalHash() {
			return fmt.Errorf("CanonicalHash differs from the %s world's", ref.name)
		}
		for _, kind := range []struct {
			name string
			key  func(w *World, buf []byte) (uint64, []byte)
		}{
			{"key", func(w *World, buf []byte) (uint64, []byte) { return w.AppendKey(led.in, buf) }},
			{"canonical key", func(w *World, buf []byte) (uint64, []byte) { return w.AppendCanonicalKey(led.in, buf) }},
		} {
			var fx uint64
			fx, *buf = kind.key(x, *buf)
			fr, rkey := kind.key(ref.w, nil)
			if !bytes.Equal(*buf, rkey) {
				return fmt.Errorf("%s %x differs from the %s world's %x", kind.name, *buf, ref.name, rkey)
			}
			if fx != fr {
				return fmt.Errorf("%s fingerprint differs from the %s world's", kind.name, ref.name)
			}
		}
	}
	return led.note(x)
}

// sameAsLoaded reports how a world rebuilt from x's plain key differs
// from x, or nil. The key is loaded twice: into a fresh clone of the
// initial world, and into twin, which has loaded every key before this
// one (so components whose piece did not change are left as they are).
// Each rebuilt world must encode and key like x, hold x's queues field
// for field, enable x's steps and, step by step, reach what x reaches.
func sameAsLoaded(x, initial, twin *World, events []EnvEvent, in *Interner) error {
	h, key := x.AppendKey(in, nil)
	var ux, ur Undo
	for _, ref := range []struct {
		name string
		w    *World
	}{{"fresh", initial.Clone()}, {"reused", twin}} {
		r := ref.w
		r.LoadKey(in, key)
		if !bytes.Equal(x.Encode(nil), r.Encode(nil)) {
			return fmt.Errorf("Encode differs from the %s loaded world's", ref.name)
		}
		if rh, rkey := r.AppendKey(in, nil); rh != h || !bytes.Equal(rkey, key) {
			return fmt.Errorf("the %s loaded world keys as %x (%#x), not %x (%#x)", ref.name, rkey, rh, key, h)
		}
		for i, c := range x.Chans {
			if !slices.Equal(c.queue, r.Chans[i].queue) {
				return fmt.Errorf("inbox %s holds %+v, the %s loaded world's %+v", c.Name, c.queue, ref.name, r.Chans[i].queue)
			}
		}
		steps := x.StepsAppend(nil, events)
		if rs := r.StepsAppend(nil, events); !reflect.DeepEqual(steps, rs) {
			return fmt.Errorf("steps %v, the %s loaded world's %v", steps, ref.name, rs)
		}
		x.Save(&ux)
		r.Save(&ur)
		for _, s := range steps {
			ax, errx := x.Apply(s)
			ar, errr := r.Apply(s)
			if errx != nil || errr != nil {
				return fmt.Errorf("apply %v: %v on the live world, %v on the %s loaded one", s, errx, errr, ref.name)
			}
			if !reflect.DeepEqual(ax, ar) {
				return fmt.Errorf("applied %+v, on the %s loaded world %+v", ax, ref.name, ar)
			}
			hx, kx := x.AppendKey(in, nil)
			if hr, kr := r.AppendKey(in, nil); hx != hr || !bytes.Equal(kx, kr) {
				return fmt.Errorf("after %v: key %x, the %s loaded world's %x", s, kx, ref.name, kr)
			}
			x.Restore(&ux)
			r.Restore(&ur)
		}
	}
	return nil
}

// TestCanonicalReflectsEveryWrite: whatever way a harness has to change
// a world between two EncodeCanonical calls, the second call shows it.
func TestCanonicalReflectsEveryWrite(t *testing.T) {
	const n = 3
	msg := types.Message{Kind: types.MsgUserMove, From: "hub"}
	writes := []struct {
		name string
		do   func(w *World)
	}{
		{"Channel.Push", func(w *World) { w.Chan(symPeerName(2)).Push(msg) }},
		{"Inject", func(w *World) { _ = w.Inject(symDevName(3), msg) }},
		{"Inject to the hub", func(w *World) { _ = w.Inject("hub", msg) }},
		{"SetState", func(w *World) { w.Proc(symDevName(2)).M.SetState("ON") }},
		{"SetVar", func(w *World) { w.Proc(symDevName(1)).M.SetVar("tries", 41) }},
		{"SetVar on the hub", func(w *World) { w.Proc("hub").M.SetVar("kicks", 41) }},
		{"SetGlobal in a namespace", func(w *World) { w.SetGlobal("g."+symNS(1)+".state", 7) }},
		{"SetGlobal growing a namespace", func(w *World) { w.SetGlobal("g."+symNS(3)+".fresh", 1) }},
		{"SetGlobal shared", func(w *World) { w.SetGlobal("g.total", 99) }},
		{"SetGlobal growing the shared part", func(w *World) { w.SetGlobal("g.zz", 1) }},
	}
	var buf []byte
	for _, wr := range writes {
		w, events := newTimedSymWorld(t, n)
		driveSym(t, w, events, []byte{1, 0, 2, 4, 3, 1})
		led := newKeyLedger(NewInterner())
		before := w.EncodeCanonical(nil) // warms every cache
		_, ckey := w.AppendCanonicalKey(led.in, nil)
		wr.do(w)
		if bytes.Equal(before, w.EncodeCanonical(nil)) {
			t.Errorf("%s: canonical encoding unchanged", wr.name)
		}
		if _, after := w.AppendCanonicalKey(led.in, nil); bytes.Equal(ckey, after) {
			t.Errorf("%s: canonical key unchanged", wr.name)
		}
		if err := sameAsRebuilt(t, w, n, &buf, led); err != nil {
			t.Errorf("%s: %v", wr.name, err)
		}
	}
}

// runDelta interprets data as a program of (op, arg) pairs over a timed
// 3-replica world and checks after every instruction that the live
// worlds still encode, hash and key like their rebuilt twins, every
// key taken under the one interner in, and that the world loaded from
// the live one's key is the live one (sameAsLoaded). The program
// mixes what the engines do — Apply, nested Save/Restore frames used
// the way runDFS uses them (one Undo per depth, restored any number of
// times), CloneInto into one reused destination from two diverging
// sources — with what harnesses do: direct writes, and globals whose
// names are new to the layout in the middle of a run. Timers arm,
// cancel and fire through the steps' lifecycle hooks.
func runDelta(t testing.TB, in *Interner, w *World, events []EnvEvent, data []byte) error {
	const n = 3
	led := newKeyLedger(in)
	other, pooled := w.Clone(), &World{}
	initial, twin := w.Clone(), w.Clone()
	var frames [4]Undo
	depth := 0
	var buf []byte
	step := func(x *World, arg byte) error {
		steps := x.Steps(events)
		if len(steps) == 0 {
			return nil
		}
		_, err := x.Apply(steps[int(arg)%len(steps)])
		return err
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%12, data[i+1]
		var err error
		switch op {
		case 0, 1, 2, 3:
			err = step(w, arg)
		case 4:
			if depth < len(frames) {
				w.Save(&frames[depth])
				depth++
			}
		case 5:
			if depth > 0 {
				w.Restore(&frames[depth-1])
			}
		case 6:
			if depth > 0 {
				depth--
				w.Restore(&frames[depth])
			}
		case 7:
			err = step(other, arg)
		case 8:
			src := w
			if arg&1 == 1 {
				src = other
			}
			src.CloneInto(pooled)
			if err = sameAsRebuilt(t, pooled, n, &buf, led); err == nil {
				// The copy must go its own way with its caches warm.
				if err = step(pooled, arg>>1); err == nil {
					err = sameAsRebuilt(t, pooled, n, &buf, led)
				}
			}
			if err != nil {
				err = fmt.Errorf("pooled copy: %w", err)
			}
		case 9:
			w.SetGlobal(fmt.Sprintf("g.%s.x%d", symNS(1+int(arg)%n), arg>>4&1), int(arg))
		case 10:
			w.SetGlobal("g.total", int(arg))
		case 11:
			k := 1 + int(arg)%n
			switch arg >> 2 % 4 {
			case 0:
				w.Proc(symDevName(k)).M.SetVar("tries", int(arg>>4))
			case 1:
				w.Proc(symDevName(k)).M.SetState([]fsm.State{"OFF", "REQ", "ON"}[arg>>4%3])
			case 2:
				err = w.Inject(symPeerName(k), types.Message{Kind: types.MsgUserDataOn, From: symDevName(k)})
			case 3:
				w.Chan(symDevName(k)).Push(types.Message{Kind: types.MsgUserMove, From: symPeerName(1 + int(arg>>4)%n), To: symDevName(k)})
			}
		}
		if err == nil {
			err = sameAsRebuilt(t, w, n, &buf, led)
		}
		if err == nil {
			err = sameAsLoaded(w, initial, twin, events, in)
		}
		if err != nil {
			return fmt.Errorf("instruction %d (op %d, arg %d): %w", i/2, op, arg, err)
		}
	}
	return nil
}

func TestQuickDeltaState(t *testing.T) {
	for _, dw := range deltaWorlds {
		t.Run(dw.name, func(t *testing.T) {
			prop := func(data []byte) bool {
				w, events := dw.make(t, 3)
				if err := runDelta(t, NewInterner(), w, events, data); err != nil {
					t.Logf("program %v: %v", data, err)
					return false
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(20140817))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzDeltaState is runDelta under the native fuzzer; the seed corpus
// (f.Add plus testdata/fuzz/FuzzDeltaState) holds programs that nest
// frames, restore one frame repeatedly, reuse the pooled destination
// from both sources and grow the layout inside a frame.
func FuzzDeltaState(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 0, 2, 4, 0, 1, 3, 5, 0, 2, 0, 5, 0, 6, 0, 3, 1, 5, 0, 6, 0})
	f.Add([]byte{0, 1, 1, 0, 8, 0, 7, 3, 7, 1, 8, 1, 8, 6, 2, 2, 8, 5})
	f.Add([]byte{4, 0, 9, 1, 9, 17, 0, 1, 5, 0, 9, 2, 10, 5, 6, 0, 9, 18})
	f.Add([]byte{2, 1, 4, 0, 11, 0, 11, 5, 11, 10, 11, 13, 5, 0, 11, 30, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		for _, dw := range deltaWorlds {
			w, events := dw.make(t, 3)
			if err := runDelta(t, NewInterner(), w, events, data); err != nil {
				t.Fatalf("%s: %v", dw.name, err)
			}
		}
	})
}

// TestDeltaStateSharedLayout runs two programs at once on worlds cloned
// from one root, the parallel engine's situation: the two share one
// globals layout, and each grows it (mutex-guarded, memoized growth)
// while the other resolves spans against it; both key their states
// under one interner. Run under -race.
func TestDeltaStateSharedLayout(t *testing.T) {
	for _, dw := range deltaWorlds {
		root, events := dw.make(t, 3)
		driveSym(t, root, events, []byte{1, 0, 2})
		in := NewInterner()
		rng := rand.New(rand.NewSource(7))
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			w := root.Clone()
			if w.glay != root.glay {
				t.Fatal("clone does not share the root's globals layout")
			}
			prog := make([]byte, 400)
			rng.Read(prog)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := runDelta(t, in, w, events, prog); err != nil {
					t.Errorf("%s: %v", dw.name, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSaveApplyRestoreAllocFree: the apply/undo cycle of the sequential
// engines allocates nothing once the frame's slabs exist.
func TestSaveApplyRestoreAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	w, events := newTimedSymWorld(t, 3)
	driveSym(t, w, events, []byte{1, 0, 2, 4, 3, 1, 0, 2})
	var u Undo
	var steps []Step
	cycle := func() {
		steps = w.StepsAppend(steps[:0], events)
		w.Save(&u)
		for _, s := range steps {
			if _, err := w.Apply(s); err != nil {
				t.Fatal(err)
			}
			w.Restore(&u)
		}
	}
	cycle() // warm the frame and the queue backings
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Save+Apply+Restore allocates %.1f per node in steady state", allocs)
	}
}
