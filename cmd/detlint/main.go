// Command detlint runs CNetVerifier's determinism analyzers
// (internal/analyzers) over Go packages. It speaks two dialects:
//
// As a vet tool, hand-implementing the cmd/go unitchecker protocol on
// the standard library alone (the build environment has no
// golang.org/x/tools):
//
//	go vet -vettool=$(command -v detlint) ./internal/check/...
//
// The go command first invokes `detlint -V=full` for a build ID, then
// once per package with a JSON config file argument (*.cfg) naming the
// sources, the import map and the export-data files of every
// dependency; detlint typechecks the unit against that export data,
// runs the analyzers, writes the (empty) facts file the protocol
// requires, prints findings to stderr and exits 2 when there are any.
//
// Standalone (direct mode), for environments where the protocol is
// unavailable:
//
//	detlint ./internal/check ./internal/core ./internal/fuzz
//
// Each argument is a package directory; sources are typechecked
// best-effort (missing import data degrades the type-driven checks to
// their syntactic fallbacks, see internal/analyzers). Exit status 2
// when findings were reported or the flags are misused, 1 on analysis
// failure or when no package is named, 0 otherwise.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cnetverifier/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes reports to stdout and
// findings and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// -V=full is the go command's tool-identification handshake; it
	// must print "<name> version ... buildID=<hex>" and exit 0 before
	// any real work happens.
	version := fs.String("V", "", "print version and exit (go vet protocol; the value must be full)")
	printFlags := fs.Bool("flags", false, "print the tool's flag definitions as JSON and exit (go vet protocol)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: detlint [package-dir...]   (or via go vet -vettool)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version != "" {
		return printVersion(*version, stdout, stderr)
	}
	if *printFlags {
		// The go command interrogates the tool for pass-through flags;
		// this tool defines none beyond the protocol's own.
		fmt.Fprintln(stdout, "[]")
		return 0
	}

	if rest := fs.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck(rest[0], stderr)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 1
	}
	return direct(fs.Args(), stderr)
}

// printVersion answers the -V=full handshake. The go command caches vet
// results keyed by the tool's build ID, so the ID must change whenever
// the binary does: hash the executable itself.
func printVersion(v string, stdout, stderr io.Writer) int {
	if v != "full" {
		fmt.Fprintf(stderr, "detlint: unsupported -V value %q\n", v)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	f, err := os.Open(exe)
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s version devel comments-go-here buildID=%02x\n", filepath.Base(exe), h.Sum(nil)[:12])
	return 0
}

// vetConfig is the JSON the go command writes for each unit. The field
// set mirrors cmd/go/internal/work's vetConfig (only the fields this
// tool consumes are decoded; unknown fields are ignored).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one compilation unit under the go vet protocol
// and returns the exit status.
func unitcheck(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(stderr, err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(stderr, fmt.Errorf("detlint: parsing %s: %v", cfgPath, err))
	}

	// The protocol requires the facts file regardless of findings (the
	// go command stats it); this tool defines no facts, so write an
	// empty one up front.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return fail(stderr, err)
		}
	}
	if cfg.VetxOnly {
		// A dependency being vetted only for facts; nothing to do.
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			return fail(stderr, err)
		}
		files = append(files, f)
	}

	// Resolve imports through the export data the go command compiled
	// for this unit: ImportMap canonicalizes the spelling, PackageFile
	// locates the .a/.x file, and the gc importer reads it.
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path := importPath
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(path)
	})

	info := newInfo()
	tconf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, "amd64"),
		GoVersion: strings.TrimPrefix(cfg.GoVersion, "go"),
	}
	if tconf.GoVersion != "" && !strings.HasPrefix(tconf.GoVersion, "go") {
		tconf.GoVersion = "go" + tconf.GoVersion
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		return fail(stderr, fmt.Errorf("detlint: typechecking %s: %v", cfg.ImportPath, err))
	}
	return runAnalyzers(fset, files, pkg, info, stderr)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// direct analyzes package directories without the go command: sources
// are typechecked best-effort against default importer lookups, and
// analyzers degrade to syntactic checks where info is missing. It
// returns the exit status.
func direct(dirs []string, stderr io.Writer) int {
	exit := 0
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return fail(stderr, err)
		}
		for _, p := range sortedPackages(pkgs) {
			var files []*ast.File
			for _, name := range sortedFileNames(p.Files) {
				files = append(files, p.Files[name])
			}
			info := newInfo()
			tconf := types.Config{
				Importer: importer.Default(),
				// Best-effort: imports of this module's own packages
				// have no installed export data, so collect errors and
				// keep whatever info resolves.
				Error: func(error) {},
			}
			pkg, _ := tconf.Check(dir, fset, files, info)
			if code := runAnalyzers(fset, files, pkg, info, stderr); code > exit {
				exit = code
			}
		}
	}
	return exit
}

// sortedPackages returns the parsed packages in name order.
func sortedPackages(m map[string]*ast.Package) []*ast.Package {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	pkgs := make([]*ast.Package, len(names))
	for i, n := range names {
		pkgs[i] = m[n]
	}
	return pkgs
}

func sortedFileNames(m map[string]*ast.File) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	// Parse order must be deterministic for stable positions-in-report
	// ordering (this tool lints for exactly this mistake).
	sort.Strings(names)
	return names
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// runAnalyzers executes every registered analyzer over one package and
// prints diagnostics to stderr in the canonical file:line:col form.
// Returns the process exit code contribution: 2 when findings were
// reported, 1 when an analyzer failed.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, stderr io.Writer) int {
	found := 0
	for _, a := range analyzers.All() {
		pass := &analyzers.Pass{
			Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
			Report: func(d analyzers.Diagnostic) {
				found++
				fmt.Fprintf(stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, a.Name)
			},
		}
		if err := a.Run(pass); err != nil {
			return fail(stderr, fmt.Errorf("detlint: %s: %v", a.Name, err))
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}

// fail reports err and returns the analysis-failure exit status.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}
