// Command cnetlint runs the internal/lint static analyzer over the
// registered protocol specs and the standard scenario worlds, and
// prints the findings as text, JSON or annotated DOT.
//
// Usage:
//
//	cnetlint [-spec all|<name>|none] [-world all|<name>|none] [-fixed]
//	         [-json] [-dot <spec>] [-fail-on info|warn|error]
//	         [-suppress RULE1,RULE2] [-rules]
//	         [-effects <world>] [-graph <world>]
//
// -effects prints the static per-edge effect summaries and independence
// clusters of one standard world (internal/lint/effects); -graph prints
// the same analysis's cross-protocol interaction graph as Graphviz DOT.
// Either exits immediately, like -dot; giving both is a usage error.
//
// -spec none -world none lists the registry: one "spec NAME" or
// "world NAME" line per registered spec variant and standard world.
//
// Exit status is 1 when any finding reaches the -fail-on severity
// (default error), 2 on usage errors — an unknown spec, world, rule ID
// in -suppress or severity in -fail-on, or -effects with -graph — and 0
// otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cnetverifier/internal/core"
	"cnetverifier/internal/lint"
	"cnetverifier/internal/lint/effects"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cnetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specName  = fs.String("spec", "all", "spec to lint: all, none, or a registry name (see -rules for IDs, cnetlint -spec none -world none to list)")
		worldName = fs.String("world", "all", "world to lint: all, none, or one of "+strings.Join(core.WorldNames(), ", "))
		fixed     = fs.Bool("fixed", false, "lint the §8-fixed variants of the standard worlds")
		jsonOut   = fs.Bool("json", false, "emit findings as JSON")
		dotSpec   = fs.String("dot", "", "print the lint-annotated DOT graph for one spec and exit")
		failOn    = fs.String("fail-on", "error", "exit nonzero when a finding reaches this severity: info, warn, error")
		suppress  = fs.String("suppress", "", "comma-separated rule IDs (see -rules) to disable everywhere")
		rules     = fs.Bool("rules", false, "print the rule catalog and exit")
		effectsW  = fs.String("effects", "", "print per-edge effect summaries and independence clusters for one world and exit")
		graphW    = fs.String("graph", "", "print the cross-protocol interaction graph of one world as Graphviz DOT and exit (not with -effects)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cnetlint: "+format+"\n", a...)
		return 2
	}

	if *rules {
		printRules(stdout, *jsonOut)
		return 0
	}

	minSev, err := lint.ParseSeverity(*failOn)
	if err != nil {
		return usage("-fail-on: %v", err)
	}

	opts := lint.Options{}
	if *suppress != "" {
		ids := strings.Split(*suppress, ",")
		for _, id := range ids {
			if !knownRule(id) {
				return usage("-suppress: unknown rule ID %q (cnetlint -rules lists them)", id)
			}
		}
		opts.Suppress = map[string][]string{"*": ids}
	}

	if *effectsW != "" && *graphW != "" {
		return usage("-effects and -graph each print one world's analysis; give one of them")
	}
	if *effectsW != "" || *graphW != "" {
		name := *effectsW
		if name == "" {
			name = *graphW
		}
		sc, ok := core.StandardWorlds(*fixed)[name]
		if !ok {
			return usage("unknown world %q (known: %s)", name, strings.Join(core.WorldNames(), ", "))
		}
		we := effects.Analyze(sc.World)
		if *effectsW != "" {
			fmt.Fprint(stdout, we.Text())
		} else {
			fmt.Fprint(stdout, we.GraphDOT())
		}
		return 0
	}

	if *dotSpec != "" {
		s, ok := core.AllSpecs()[*dotSpec]
		if !ok {
			return usage("unknown spec %q (known: %s)", *dotSpec, strings.Join(core.SpecNames(), ", "))
		}
		fmt.Fprint(stdout, lint.DOT(s, lint.Spec(s, opts)))
		return 0
	}

	specNames, err := selectNames(*specName, core.SpecNames(), "spec")
	if err != nil {
		return usage("%v", err)
	}
	worldNames, err := selectNames(*worldName, core.WorldNames(), "world")
	if err != nil {
		return usage("%v", err)
	}
	if len(specNames) == 0 && len(worldNames) == 0 {
		for _, name := range core.SpecNames() {
			fmt.Fprintln(stdout, "spec", name)
		}
		for _, name := range core.WorldNames() {
			fmt.Fprintln(stdout, "world", name)
		}
		return 0
	}

	type target struct {
		Target   string         `json:"target"`
		Findings []lint.Finding `json:"findings"`
	}
	var targets []target
	total := &lint.Report{}

	specs := core.AllSpecs()
	for _, name := range specNames {
		rep := lint.Spec(specs[name], opts)
		targets = append(targets, target{"spec " + name, rep.Findings})
		total.Merge(rep)
	}

	worlds := core.StandardWorlds(*fixed)
	for _, name := range worldNames {
		sc := worlds[name]
		rep := core.LintWorld(sc, worldOptions(opts, sc.Options.LintSuppress))
		targets = append(targets, target{"world " + name, rep.Findings})
		total.Merge(rep)
	}

	if *jsonOut {
		for i := range targets {
			if targets[i].Findings == nil {
				targets[i].Findings = []lint.Finding{}
			}
		}
		out, err := json.MarshalIndent(targets, "", "  ")
		if err != nil {
			return usage("%v", err)
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		for _, tg := range targets {
			if len(tg.Findings) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "== %s ==\n", tg.Target)
			for _, f := range tg.Findings {
				fmt.Fprintln(stdout, f.String())
			}
		}
		fmt.Fprintf(stdout, "linted %d targets: %d findings (%d errors, %d warnings, %d info)\n",
			len(targets), len(total.Findings),
			len(total.ByRuleSeverity(lint.Error)),
			len(total.ByRuleSeverity(lint.Warn)),
			len(total.ByRuleSeverity(lint.Info)))
	}

	if !total.Clean(minSev) {
		return 1
	}
	return 0
}

// knownRule reports whether id names a rule of the catalog.
func knownRule(id string) bool {
	for _, r := range lint.Rules() {
		if r.ID == id {
			return true
		}
	}
	return false
}

// selectNames resolves a -spec/-world flag value against the registry:
// "all" means every name, "none" means none, anything else one name.
func selectNames(value string, known []string, kind string) ([]string, error) {
	switch strings.ToLower(value) {
	case "all":
		return known, nil
	case "none", "":
		return nil, nil
	}
	for _, n := range known {
		if n == value {
			return []string{n}, nil
		}
	}
	return nil, fmt.Errorf("unknown %s %q (known: %s)", kind, value, strings.Join(known, ", "))
}

// worldOptions layers a world's own per-process suppressions (the same
// ones check.Run honors) on top of the command-line options.
func worldOptions(o lint.Options, extra map[string][]string) lint.Options {
	if len(extra) == 0 {
		return o
	}
	merged := make(map[string][]string, len(o.Suppress)+len(extra))
	for k, v := range o.Suppress {
		merged[k] = append(merged[k], v...)
	}
	for k, v := range extra {
		merged[k] = append(merged[k], v...)
	}
	o.Suppress = merged
	return o
}

func printRules(w io.Writer, asJSON bool) {
	rules := lint.Rules()
	if asJSON {
		out, _ := json.MarshalIndent(rules, "", "  ")
		fmt.Fprintln(w, string(out))
		return
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	for _, r := range rules {
		fmt.Fprintf(w, "%-8s %-5s %-5s %s\n", r.ID, r.Severity, r.Scope, r.Summary)
	}
}
