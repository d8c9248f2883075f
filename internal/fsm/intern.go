package fsm

import (
	"sort"
	"sync"
)

// This file implements the interned, flat representation behind
// Machine: a package-level symbol interner for variable and global
// names, and a per-Spec layout that resolves every declared variable to
// a dense slot index at construction time. Guards and actions keep
// using string names (one read-only map lookup, no global locking on
// the hot path); the checker-facing encoding and cloning paths operate
// on []int32 slabs only.

// Sym is an interned name: a dense process-wide identifier for a
// variable or global name string. Syms are assigned in first-intern
// order and are therefore NOT stable across runs — they must never
// leak into canonical state encodings (layouts sort by name instead).
type Sym int32

var interner = struct {
	mu    sync.RWMutex
	ids   map[string]Sym
	names []string
}{ids: make(map[string]Sym)}

// Intern returns the symbol for a name, assigning the next dense id on
// first sight. Interning also canonicalizes the string: every layout
// and world built afterwards shares one copy of the name's bytes.
func Intern(name string) Sym {
	interner.mu.RLock()
	s, ok := interner.ids[name]
	interner.mu.RUnlock()
	if ok {
		return s
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if s, ok = interner.ids[name]; ok {
		return s
	}
	s = Sym(len(interner.names))
	interner.names = append(interner.names, name)
	interner.ids[name] = s
	return s
}

// SymName returns the name a symbol was interned from ("" if unknown).
func SymName(s Sym) string {
	interner.mu.RLock()
	defer interner.mu.RUnlock()
	if int(s) < 0 || int(s) >= len(interner.names) {
		return ""
	}
	return interner.names[s]
}

// SymString returns the canonical (interned) copy of a name's string,
// so distinct layouts referencing the same name share its bytes.
func SymString(name string) string {
	return SymName(Intern(name))
}

// layout is the flat variable layout of one Spec: declared names in
// sorted order, each resolved to a dense slot index. It is immutable
// and shared by every Machine of the spec.
type layout struct {
	names []string         // sorted declared variable names
	syms  []Sym            // interned symbols, parallel to names
	slot  map[string]int32 // name -> slot index
	init  []int32          // initial values, slot order
}

type layoutKey struct{}

// layoutFor returns the spec's layout, built on first use and owned by
// the spec (Spec.Derived). Specs are treated as immutable after the
// first Machine instantiation; the layout is only consulted at
// construction time (fsm.New, Spec.Slot), never on the exploration hot
// path.
func layoutFor(s *Spec) *layout {
	return s.Derived(layoutKey{}, func() any { return buildLayout(s) }).(*layout)
}

func buildLayout(s *Spec) *layout {
	l := &layout{
		names: make([]string, 0, len(s.Vars)),
		slot:  make(map[string]int32, len(s.Vars)),
	}
	for k := range s.Vars {
		l.names = append(l.names, SymString(k))
	}
	sort.Strings(l.names)
	l.syms = make([]Sym, len(l.names))
	l.init = make([]int32, len(l.names))
	for i, k := range l.names {
		l.slot[k] = int32(i)
		l.syms[i] = Intern(k)
		l.init[i] = int32(s.Vars[k])
	}
	return l
}

// Slot returns the dense index of a declared variable of the spec, for
// use with Ctx.GetI/SetI inside guards and actions. The bool reports
// whether the variable is declared; undeclared (runtime-grown)
// variables have no slot and must use the string forms.
func (s *Spec) Slot(name string) (int32, bool) {
	i, ok := layoutFor(s).slot[name]
	return i, ok
}

// SlotName returns the declared variable name at a slot index ("" when
// out of range) — the inverse of Slot, used by diagnostics.
func (s *Spec) SlotName(slot int32) string {
	l := layoutFor(s)
	if slot < 0 || int(slot) >= len(l.names) {
		return ""
	}
	return l.names[slot]
}

// overVar is one undeclared variable added to a machine at runtime via
// SetVar (test harnesses and replay mutations). The overflow list is
// kept sorted by name so the canonical encoding stays a pure function
// of the machine's logical state.
type overVar struct {
	name string
	val  int32
}

// overIdx locates name in the sorted overflow list.
func overIdx(over []overVar, name string) (int, bool) {
	i := sort.Search(len(over), func(i int) bool { return over[i].name >= name })
	return i, i < len(over) && over[i].name == name
}
