// Command cnettrace parses and analyzes §3.3-format protocol traces
// (as produced by the emulator's trace collector): it filters records
// and can measure the latency between two matching events, the
// primitive behind the validation-phase measurements.
//
// Usage:
//
//	cnettrace [-f FILE] [-module MM] [-system 3G|4G]
//	          [-type STATE|SIGNAL|CONFIG|ERROR|INFO|EXPIRY|RETX|ABORT]
//	          [-contains TEXT] [-span-start TEXT -span-end TEXT] [-count]
//
// Without -f the trace is read from stdin. Exit status: 0 on success,
// 1 on an invalid filter or span or an unreadable trace, 2 on a flag
// syntax error or when the span events are not found.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cnetverifier/internal/trace"
	"cnetverifier/internal/types"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cnettrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file      = fs.String("f", "", "trace file (default stdin)")
		module    = fs.String("module", "", "filter by module")
		system    = fs.String("system", "", "filter by system (3G or 4G)")
		typ       = fs.String("type", "", "filter by trace type (STATE, SIGNAL, CONFIG, ERROR, INFO, EXPIRY, RETX or ABORT)")
		contains  = fs.String("contains", "", "filter by description substring")
		spanStart = fs.String("span-start", "", "measure: description substring of the start event (needs -span-end)")
		spanEnd   = fs.String("span-end", "", "measure: description substring of the end event (needs -span-start)")
		count     = fs.Bool("count", false, "print only the number of matching records")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cnettrace: "+format+"\n", a...)
		return 1
	}

	filter := trace.Filter{Module: *module, Contains: *contains, Type: trace.Type(*typ)}
	if *typ != "" && !knownType(filter.Type) {
		return fail("unknown type %q (want one of %v)", *typ, trace.Types)
	}
	switch *system {
	case "3G":
		filter.System = types.Sys3G
	case "4G":
		filter.System = types.Sys4G
	case "":
	default:
		return fail("unknown system %q (want 3G or 4G)", *system)
	}
	if (*spanStart == "") != (*spanEnd == "") {
		return fail("-span-start and -span-end must be given together")
	}

	r := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		r = f
	}
	recs, err := trace.Read(r)
	if err != nil {
		return fail("%v", err)
	}

	if *spanStart != "" {
		d, ok := trace.Span(recs,
			trace.Filter{Contains: *spanStart},
			trace.Filter{Contains: *spanEnd})
		if !ok {
			fmt.Fprintln(stderr, "cnettrace: span events not found")
			return 2
		}
		fmt.Fprintf(stdout, "span %q -> %q: %v\n", *spanStart, *spanEnd, d)
		return 0
	}

	matched := filter.Apply(recs)
	if *count {
		fmt.Fprintln(stdout, len(matched))
		return 0
	}
	for _, rec := range matched {
		fmt.Fprintln(stdout, rec.String())
	}
	return 0
}

func knownType(t trace.Type) bool {
	for _, k := range trace.Types {
		if t == k {
			return true
		}
	}
	return false
}
