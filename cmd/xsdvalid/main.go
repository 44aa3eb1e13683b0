// Command xsdvalid validates XML documents against an XML Schema, using
// the paper's §3.3 counter machinery: content models with
// minOccurs/maxOccurs compile into counted expressions whose determinism
// (the Unique Particle Attribution constraint) is decided in time
// independent of the bound magnitudes, and each element's child sequence
// is checked in one streaming pass with O(1) configurations per open
// element. Documents are validated concurrently by a worker pool sharing
// one set of compiled models, so corpus runs amortize every compile.
//
// Usage:
//
//	xsdvalid -xsd FILE.xsd [-workers N] [-json] [-q] [-stats] PATH...
//
// Each PATH is an XML file or a directory walked recursively for *.xml
// files. A schema whose content models violate Unique Particle
// Attribution is rejected up front, with the counterexample diagnosis for
// each offending type.
//
// Exit status: 0 all documents valid, 1 any invalid or unreadable (or a
// rejected schema), 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dregex"
	"dregex/internal/cli"
	"dregex/internal/xsd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main minus process concerns, so CLI behavior is testable; reports
// still go to stdout (via cli.Report), diagnostics to stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("xsdvalid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		xsdPath = fs.String("xsd", "", "XML Schema file (required)")
		workers = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonOut = fs.Bool("json", false, "emit a JSON report")
		quiet   = fs.Bool("q", false, "text mode: only report invalid documents and the summary")
		stats   = fs.Bool("stats", false, "print an end-of-run metrics summary (docs/sec, bytes/sec, engine tiers) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *xsdPath == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: xsdvalid -xsd FILE.xsd [-workers N] [-json] [-q] PATH...")
		return 2
	}
	paths := cli.CollectFiles(fs.Args(), ".xml")
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "error: no XML documents found")
		return 1
	}

	data, err := os.ReadFile(*xsdPath)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	// One cache for the whole run: every distinct content model compiles
	// exactly once however many types or schema reloads reuse it.
	s, err := xsd.ParseWithCache(data, dregex.NewCache(4096))
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	// Nondeterministic content models cannot drive a one-pass validator;
	// reject the schema with the full diagnosis rather than skipping the
	// affected elements silently.
	if issues := s.Check(); len(issues) > 0 {
		fmt.Fprintf(stderr, "error: %s is not a valid schema: %d content model(s) violate Unique Particle Attribution\n",
			*xsdPath, len(issues))
		for _, is := range issues {
			fmt.Fprintf(stderr, "  %s: %s\n", is.Type, is.Msg)
		}
		return 1
	}

	start := time.Now()
	results := xsd.NewValidator(s, *workers).ValidateFiles(paths)
	return cli.Report(results, time.Since(start), *jsonOut, *quiet, *stats, stderr)
}
