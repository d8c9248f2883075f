package check

import (
	"sort"
	"strings"

	"cnetverifier/internal/model"
)

// symmetrizeViolations closes a result's violation set under the
// world's declared replica permutations (Options.Symmetry).
//
// Why this is needed for exactness: the quotient search visits one
// representative state per permutation orbit, and which representative
// it reaches depends on the canonical order, not on replica labels. A
// property parametrized by a replica (DataService_OK "[ue2]") can
// therefore fire only with the representative's labeling, while the
// plain search would also report the permuted twins. Because the
// scenario and the step relation are equivariant under the declared
// permutations, the plain run's violation set IS closed under them —
// so rewriting every found violation along every permutation (swapping
// the corresponding replica atoms in property names, descriptions and
// counterexample steps) reconstructs it exactly. See DESIGN.md,
// "Symmetry reduction", for the full argument.
//
// The closure is O(|violations| * Σ n_g!), fine for the handful of
// violations and single-digit replica counts screening produces; the
// exploration itself is what the reduction divides by ~n!.
func symmetrizeViolations(res *Result, sym *model.Symmetry) {
	if res == nil || sym == nil || len(res.Violations) == 0 {
		return
	}
	active := false
	for _, g := range sym.Groups {
		if len(g.Replicas) > 1 {
			active = true
			break
		}
	}
	if !active {
		return
	}
	seen := make(map[string]struct{}, len(res.Violations))
	for _, v := range res.Violations {
		seen[v.Property+"\x00"+v.Desc] = struct{}{}
	}
	for _, g := range sym.Groups {
		n := len(g.Replicas)
		if n < 2 {
			continue
		}
		// Snapshot before this group's expansion: images of images under
		// the same group are compositions of permutations, which the
		// enumeration below already covers; images under other groups
		// are picked up because each group iterates the accumulated list.
		base := res.Violations
		for _, perm := range permutations(n) {
			rw := newAtomRewriter(g, perm)
			if rw == nil {
				continue // identity permutation
			}
			for _, v := range base {
				nv := rewriteViolation(v, rw)
				key := nv.Property + "\x00" + nv.Desc
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				res.Violations = append(res.Violations, nv)
			}
		}
	}
	res.Violations = DedupeViolations(res.Violations)
}

// permutations enumerates all permutations of [0..n) in lexicographic
// order (deterministic, so closure output order never depends on
// anything but the descriptor).
func permutations(n int) [][]int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var out [][]int
	for {
		out = append(out, append([]int(nil), perm...))
		i := n - 2
		for i >= 0 && perm[i] >= perm[i+1] {
			i--
		}
		if i < 0 {
			return out
		}
		j := n - 1
		for perm[j] <= perm[i] {
			j--
		}
		perm[i], perm[j] = perm[j], perm[i]
		for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
			perm[l], perm[r] = perm[r], perm[l]
		}
	}
}

// atomRewriter performs simultaneous longest-match-first substitution
// of replica atoms: every occurrence of a source replica's process
// names, namespace and atoms is replaced by the target replica's
// corresponding token, in one left-to-right scan. Longest-first
// matching keeps "ue1" from firing inside "ue10"; simultaneity keeps a
// swap (ue1<->ue2) from chaining through its own output.
type atomRewriter struct {
	from, to []string
}

func newAtomRewriter(g model.SymGroup, perm []int) *atomRewriter {
	rw := &atomRewriter{}
	have := make(map[string]bool)
	add := func(a, b string) {
		if a == "" || a == b || have[a] {
			return
		}
		have[a] = true
		rw.from = append(rw.from, a)
		rw.to = append(rw.to, b)
	}
	for i, p := range perm {
		if p == i {
			continue
		}
		src, dst := g.Replicas[i], g.Replicas[p]
		for j := range src.Procs {
			if j < len(dst.Procs) {
				add(src.Procs[j], dst.Procs[j])
			}
		}
		add(src.NS, dst.NS)
		for j := range src.Atoms {
			if j < len(dst.Atoms) {
				add(src.Atoms[j], dst.Atoms[j])
			}
		}
	}
	if len(rw.from) == 0 {
		return nil
	}
	sort.Sort(rw)
	return rw
}

// sort.Interface: by pattern length descending, then lexicographic —
// the longest-match-first scan order.
func (rw *atomRewriter) Len() int { return len(rw.from) }
func (rw *atomRewriter) Less(i, j int) bool {
	if len(rw.from[i]) != len(rw.from[j]) {
		return len(rw.from[i]) > len(rw.from[j])
	}
	return rw.from[i] < rw.from[j]
}
func (rw *atomRewriter) Swap(i, j int) {
	rw.from[i], rw.from[j] = rw.from[j], rw.from[i]
	rw.to[i], rw.to[j] = rw.to[j], rw.to[i]
}

func (rw *atomRewriter) rewrite(s string) string {
	match := func(i int) (int, bool) {
		for k, f := range rw.from {
			if len(f) <= len(s)-i && s[i:i+len(f)] == f {
				return k, true
			}
		}
		return 0, false
	}
	first, firstK := -1, 0
	for i := 0; i < len(s); i++ {
		if k, ok := match(i); ok {
			first, firstK = i, k
			break
		}
	}
	if first < 0 {
		return s // nothing matched; share the input
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	b.WriteString(s[:first])
	b.WriteString(rw.to[firstK])
	i := first + len(rw.from[firstK])
	for i < len(s) {
		if k, ok := match(i); ok {
			b.WriteString(rw.to[k])
			i += len(rw.from[k])
		} else {
			b.WriteByte(s[i])
			i++
		}
	}
	return b.String()
}

// rewriteViolation maps one violation along a permutation: property
// name, description, and every step's process, message endpoints and
// notes. Transition labels are spec-level names and carry no replica
// atoms, so they pass through untouched.
func rewriteViolation(v Violation, rw *atomRewriter) Violation {
	nv := Violation{
		Property: rw.rewrite(v.Property),
		Desc:     rw.rewrite(v.Desc),
		Path:     make([]model.Step, len(v.Path)),
	}
	for i, st := range v.Path {
		st.Proc = rw.rewrite(st.Proc)
		st.Msg.From = rw.rewrite(st.Msg.From)
		st.Msg.To = rw.rewrite(st.Msg.To)
		if st.Notes != nil {
			notes := make([]string, len(st.Notes))
			for j, n := range st.Notes {
				notes[j] = rw.rewrite(n)
			}
			st.Notes = notes
		}
		nv.Path[i] = st
	}
	return nv
}
