// Command cnetverify runs CNetVerifier's screening phase (§3.2): it
// model-checks the scoped protocol worlds for the paper's findings and
// prints property violations with their counterexamples.
//
// Usage:
//
//	cnetverify [-world all|s1|s2|s3|s4cs|s4ps|s6|multiue|multiue-shared] [-fixed] [-strategy dfs|bfs|walk]
//	           [-depth N] [-states N] [-verbose] [-skip-lint]
//	           [-por] [-sym] [-violations] [-stats]
//	           [-timing] [-timing-profile nas|degenerate]
//	           [-workers N] [-parallel N] [-budget N] [-first]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -por enables partial-order reduction for dfs/bfs: the static effect
// analysis (internal/lint/effects) decomposes the world into
// independence clusters and each cluster's projection is screened
// separately. -violations prints only the canonical sorted
// finding/property/description lines, so a -por run can be
// byte-compared against a plain run (paths and step counts differ).
//
// -sym enables symmetry reduction for dfs/bfs on worlds declaring a
// replica structure (multiue, multiue-shared): the visited set is keyed
// by the canonical encoding that sorts replica sub-encodings, so the
// search explores one representative per UE-permutation orbit and the
// violation set is closed back over the permutations afterwards. A -sym
// -violations run byte-compares equal against a plain run. -sym and
// -por compose: each cluster projection canonicalizes its own replicas.
//
// The visited set is exact: it stores each state's key, a vector of
// interned component ids, and resolves every fingerprint match against
// it, so a clean run means no violation within the bounds.
//
// -timing enables discrete virtual time: the scenario's periodic env
// events are replaced by first-class timers with [earliest, latest]
// expiry windows, and the engines enumerate exactly the admissible
// expiry orderings (an expiry is schedulable only while no other armed
// timer must already have fired). -timing-profile nas (default) arms
// the 3GPP periodic-update timers (T3412/T3212/T3312) with distinct
// realistic windows — this reaches timing-only violations the untimed
// scenario never offers. -timing-profile degenerate arms zero-width
// always-fireable windows instead, which is provably equivalent to
// untimed screening: its -violations output equals the untimed run's
// (internal/core's TestEngineEquivalence checks that in-process on
// every standard world, reduction and engine). Composes with -por,
// -sym and -workers.
//
// -stats prints, per world, the visited-table diagnostics (slot
// occupancy, growth count, probe-length histogram, the bytes of state
// keys in the arena and the number of distinct components they were
// built from), the layered engine's widest frontier layer (bfs, or
// -workers above 1) and a final process memory summary — the knobs to
// watch when sizing -states against available memory.
//
// -cpuprofile and -memprofile write pprof profiles of the campaign (the
// heap profile is taken after the run, post-GC); feed them to
// `go tool pprof` when hunting screening hot spots.
//
// -workers sets the exploration goroutines per world (1 = sequential).
// With more than one, dfs and bfs both run the layered breadth-first
// engine, whatever -strategy says: states and violation sets are those
// of any sequential run, and transitions are exactly those of
// -strategy bfs -workers 1 — fewer than dfs reports, which re-expands
// states it later reaches by a shorter path. -parallel screens that many
// worlds concurrently. -budget shares one pool of distinct-state tokens
// across the whole campaign. -first cancels everything at the first
// violation. See DESIGN.md, determinism contract.
//
// Each world passes through the internal/lint structural gate before
// exploration; -skip-lint bypasses the gate (see cmd/cnetlint for the
// standalone analyzer).
//
// Exit status is 2 when a property violation is found in a fixed world
// (the §8 solutions must be clean) or on an unknown flag, 1 on a usage
// error (a stray argument, an unknown world or strategy, a negative
// -depth, -states or -budget, a -depth above 65535, a -walks, -workers
// or -parallel below 1) or a failed run, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"cnetverifier/internal/check"
	"cnetverifier/internal/core"
	"cnetverifier/internal/names"
	"cnetverifier/internal/validate"
)

func main() {
	var (
		world    = flag.String("world", "all", "scoped world: all, s1, s2, s3, s4cs, s4ps, s6, multiue, multiue-shared")
		fixed    = flag.Bool("fixed", false, "enable the §8 fixes")
		strategy = flag.String("strategy", "dfs", "exploration strategy: dfs, bfs, walk")
		depth    = flag.Int("depth", 0, "max path depth (0 = world default; at most 65535)")
		states   = flag.Int("states", 0, "max distinct states (0 = default)")
		walks    = flag.Int("walks", 1000, "random walks (strategy=walk)")
		seed     = flag.Int64("seed", 1, "random-walk seed")
		verbose  = flag.Bool("verbose", false, "print full counterexamples")
		doValid  = flag.Bool("validate", false, "run the phase-2 validation campaign (replay counterexamples on the emulator)")
		coverage = flag.Bool("coverage", false, "print per-process transition coverage of each screening run")
		skipLint = flag.Bool("skip-lint", false, "skip the structural lint gate and explore the world even with error-severity findings")
		por      = flag.Bool("por", false, "enable partial-order reduction (cluster decomposition over the static effect analysis; dfs/bfs only)")
		sym      = flag.Bool("sym", false, "enable symmetry reduction (canonical replica-permutation quotient; dfs/bfs only)")
		onlyViol = flag.Bool("violations", false, "print only the canonical violation set (sorted property/description lines), for byte-comparing runs")
		stats    = flag.Bool("stats", false, "print per-world visited-table statistics (occupancy, probe histogram, key arena bytes, interned components), the widest frontier layer and the process memory high-water mark")
		timing   = flag.Bool("timing", false, "discrete virtual time: model periodic protocol timers as first-class [earliest, latest] expiry windows (see -timing-profile)")
		timProf  = flag.String("timing-profile", "nas", "timer-window derivation: nas (realistic T3412/T3212/T3312 windows) or degenerate (zero-width windows, provably equivalent to untimed screening)")
		workers  = flag.Int("workers", 1, "exploration workers per world (>1 = layered breadth-first engine for dfs and bfs alike; walk splits its walks)")
		parallel = flag.Int("parallel", 1, "worlds screened concurrently")
		budget   = flag.Int("budget", 0, "shared distinct-state budget across the campaign (0 = none)")
		first    = flag.Bool("first", false, "cancel the whole campaign at the first violation")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	// Checked before anything is built or started: the per-world hook
	// below runs on ScreenWorlds' goroutines under -parallel, where a
	// usage error could no longer exit cleanly. A bare world name would
	// otherwise be ignored and every world screened.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cnetverify: unexpected argument %q (choose the world with -world)\n", flag.Arg(0))
		os.Exit(1)
	}
	for _, f := range []struct {
		name     string
		v, least int
	}{{"depth", *depth, 0}, {"states", *states, 0}, {"budget", *budget, 0},
		{"walks", *walks, 1}, {"workers", *workers, 1}, {"parallel", *parallel, 1}} {
		if f.v < f.least {
			fmt.Fprintf(os.Stderr, "cnetverify: -%s must be at least %d, got %d\n", f.name, f.least, f.v)
			os.Exit(1)
		}
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnetverify:", err)
		os.Exit(1)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cnetverify:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cnetverify:", err)
			os.Exit(1)
		}
		cpuProfiling = true
	}
	memProfile = *memProf

	if *doValid {
		outcomes, err := validate.Campaign(validate.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cnetverify:", err)
			exit(1)
		}
		for _, o := range outcomes {
			fmt.Println(o)
		}
		exit(0)
	}

	scoped, err := selectWorlds(*world, *fixed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnetverify:", err)
		exit(1)
	}
	if *timing {
		profile, err := core.ParseTimingProfile(*timProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cnetverify:", err)
			exit(1)
		}
		for i := range scoped {
			scoped[i], err = core.WithTiming(scoped[i], profile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cnetverify:", err)
				exit(1)
			}
		}
	}

	perWorld := func(s core.Scoped) check.Options {
		opt := s.Options
		opt.Strategy = strat
		if strat == check.RandomWalk {
			opt.Walks = *walks
			opt.Seed = *seed
		}
		if *depth > 0 {
			opt.MaxDepth = *depth
		}
		if *states > 0 {
			opt.MaxStates = *states
		}
		if *skipLint {
			opt.SkipLint = true
		}
		opt.POR = *por
		opt.Symmetry = *sym
		return opt
	}
	results, err := core.ScreenWorlds(scoped, perWorld, core.CampaignOptions{
		Parallel:          *parallel,
		Workers:           *workers,
		StateBudget:       *budget,
		CancelOnViolation: *first,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnetverify:", err)
		exit(1)
	}

	if *onlyViol {
		// POR runs explore cluster projections, so step counts and
		// counterexample paths legitimately differ from plain runs;
		// the (world, property, description) set is the engine's
		// determinism contract, and this mode prints exactly that so a
		// -por run can be diffed against a plain run byte for byte.
		var lines []string
		for _, r := range results {
			f, _ := core.FindingByID(r.Finding)
			for _, v := range r.Result.Violations {
				lines = append(lines, fmt.Sprintf("%s\t%s\t%s", f.ID, v.Property, v.Desc))
			}
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Println(l)
		}
		exit(0)
	}

	fmt.Print(core.Report(results, *verbose))
	if *stats {
		for _, r := range results {
			f, _ := core.FindingByID(r.Finding)
			fmt.Printf("%s %s\n", f.ID, r.Result.Visited)
			if r.Result.MaxFrontier > 0 {
				fmt.Printf("%s frontier: widest layer %d states\n", f.ID, r.Result.MaxFrontier)
			}
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Printf("memory: heap %0.1f MB live / %0.1f MB sys, %0.1f MB allocated total\n",
			float64(m.HeapAlloc)/(1<<20), float64(m.Sys)/(1<<20), float64(m.TotalAlloc)/(1<<20))
	}
	if *coverage {
		for i, r := range results {
			fmt.Print(core.CoverageSummary(scoped[i], r))
		}
	}

	if *fixed {
		for _, r := range results {
			if r.Violated() {
				fmt.Fprintln(os.Stderr, "cnetverify: fixed world still violates properties")
				exit(2)
			}
		}
	}
	exit(0)
}

// cpuProfiling and memProfile record the -cpuprofile/-memprofile state
// so exit can finalize the profiles on every termination path (os.Exit
// skips deferred calls).
var (
	cpuProfiling bool
	memProfile   string
)

// exit flushes any active profiles and terminates with code.
func exit(code int) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	if memProfile != "" {
		if f, err := os.Create(memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "cnetverify:", err)
		} else {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cnetverify:", err)
			}
			f.Close()
		}
	}
	os.Exit(code)
}

// parseStrategy maps a -strategy value (case-insensitive) to the
// checker's strategy.
func parseStrategy(s string) (check.Strategy, error) {
	switch strings.ToLower(s) {
	case "dfs":
		return check.DFS, nil
	case "bfs":
		return check.BFS, nil
	case "walk":
		return check.RandomWalk, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

func selectWorlds(name string, fixed bool) ([]core.Scoped, error) {
	switch strings.ToLower(name) {
	case "all":
		if fixed {
			return core.FixedModels(), nil
		}
		return core.ScopedModels(), nil
	case "s1":
		return []core.Scoped{core.S1World(fixed)}, nil
	case "s2":
		return []core.Scoped{core.S2World(fixed)}, nil
	case "s3":
		return []core.Scoped{core.S3World(fixed, names.SwitchReselect)}, nil
	case "s4cs", "s4":
		return []core.Scoped{core.S4CSWorld(fixed)}, nil
	case "s4ps":
		return []core.Scoped{core.S4PSWorld(fixed)}, nil
	case "s6":
		return []core.Scoped{core.S6World(fixed)}, nil
	case "multiue":
		return []core.Scoped{core.MultiUEWorld(3, fixed)}, nil
	case "multiue-shared":
		return []core.Scoped{core.MultiUEWorldShared(3, fixed)}, nil
	default:
		return nil, fmt.Errorf("unknown world %q", name)
	}
}
