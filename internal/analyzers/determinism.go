package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Determinism flags nondeterminism hazards in the checker's own
// implementation. The screening engine promises bit-identical results
// for identical inputs (DESIGN.md, determinism contract): parallel
// runs must report the same violation sets as sequential runs, goldens
// must not flap, BENCH numbers must be comparable across runs. Three
// source patterns quietly break that promise:
//
//   - ranging over a map and feeding the iteration order into ordered
//     output (append to a slice, printing) without sorting afterwards —
//     Go randomizes map iteration per run;
//   - time.Now() — wall-clock input makes replay diverge;
//   - the package-level math/rand functions — they draw from the
//     globally seeded source, so results depend on whatever else ran.
//     Explicitly seeded generators are not flagged; stats.NewRand(seed)
//     is the sanctioned idiom (math/rand's seeded stream, seeded in
//     O(1); ci.sh keeps rand.NewSource inside internal/stats).
//
// The map-iteration check is type-driven when type information is
// available and silent otherwise (a syntactic guess would drown the
// report in false positives); a loop is exonerated when the enclosing
// function also calls sort.* or slices.Sort*, the usual
// collect-then-sort shape.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "report nondeterminism hazards: map iteration feeding ordered output, " +
		"time.Now, and globally-seeded math/rand use",
	Run: runDeterminism,
}

// seededRandFuncs are the math/rand names that construct or seed an
// explicit generator; calling them is how deterministic code is
// supposed to use the package.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		// Resolve the local spellings of the packages the checks care
		// about, so aliased imports are still caught and shadowed
		// identifiers are not.
		timeName := importName(f, "time")
		randName := importName(f, "math/rand")
		if randName == "" {
			randName = importName(f, "math/rand/v2")
		}

		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(pass, fn, timeName, randName)
			}
		}
	}
	return nil
}

func checkFunc(pass *Pass, fn *ast.FuncDecl, timeName, randName string) {
	sorts := callsSort(fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, timeName, randName)
		case *ast.RangeStmt:
			checkMapRange(pass, n, sorts)
		}
		return true
	})
}

// checkCall flags time.Now and package-level math/rand calls.
func checkCall(pass *Pass, call *ast.CallExpr, timeName, randName string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	// Only treat the identifier as a package name when it resolves to
	// one (or when no resolution is available and it matches the
	// file's import spelling). A local variable named rand with an
	// Intn method must not be flagged.
	if !identIsPackage(pass, recv) {
		return
	}
	switch {
	case timeName != "" && recv.Name == timeName && sel.Sel.Name == "Now":
		pass.Report(Diagnostic{
			Pos:     call.Pos(),
			Message: "time.Now in deterministic-replay code: thread an explicit clock instead",
		})
	case randName != "" && recv.Name == randName && !seededRandFuncs[sel.Sel.Name]:
		pass.Report(Diagnostic{
			Pos: call.Pos(),
			Message: fmt.Sprintf("globally-seeded rand.%s: use stats.NewRand(seed) so runs are reproducible",
				sel.Sel.Name),
		})
	}
}

// identIsPackage reports whether the identifier denotes an imported
// package. With type info it asks the Uses map; without, it falls
// back to trusting the import-spelling match already performed by the
// caller.
func identIsPackage(pass *Pass, id *ast.Ident) bool {
	if pass.TypesInfo == nil || pass.TypesInfo.Uses == nil {
		return true
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		// Unresolved (partial typecheck): keep the syntactic verdict.
		return true
	}
	_, isPkg := obj.(*types.PkgName)
	return isPkg
}

// checkMapRange flags a range over a map whose body feeds iteration
// order into ordered output, unless the enclosing function sorts.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, fnSorts bool) {
	if fnSorts || !isMapType(pass, rs.X) {
		return
	}
	if sink := orderedSink(rs.Body); sink != "" {
		pass.Report(Diagnostic{
			Pos: rs.Pos(),
			Message: fmt.Sprintf("map iteration order feeds %s: sort the keys first (or sort the result) — "+
				"Go randomizes map order per run", sink),
		})
	}
}

// isMapType reports whether the expression is statically a map. It
// requires type information: without it the check stays silent rather
// than guess.
func isMapType(pass *Pass, x ast.Expr) bool {
	if pass.TypesInfo == nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderedSink scans a range body for order-sensitive consumers of the
// iteration: appending to a slice, or printing. It returns a short
// description of the first sink found, or "".
func orderedSink(body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				sink = "an append"
			}
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "fmt" && strings.Contains(fun.Sel.Name, "rint") {
				sink = "fmt." + fun.Sel.Name
			}
		}
		return true
	})
	return sink
}

// callsSort reports whether the function calls sort.* or slices.Sort*
// anywhere — the collect-then-sort idiom that makes map iteration
// order irrelevant.
func callsSort(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if id.Name == "sort" || (id.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
				found = true
			}
		}
		return true
	})
	return found
}

// importName returns the file-local name of the import with the given
// path: the alias if one was declared, the base element otherwise, ""
// when the file does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		// Default package name: the last path element, skipping a
		// major-version suffix (math/rand/v2 is package rand).
		if i := strings.LastIndex(p, "/"); i >= 0 && len(p)-i >= 3 && p[i+1] == 'v' && p[i+2] >= '2' && p[i+2] <= '9' {
			p = p[:i]
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p
	}
	return ""
}
