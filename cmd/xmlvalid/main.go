// Command xmlvalid validates XML documents against DTD content models,
// using the paper's streaming transition simulators (each element's child
// sequence is checked in one pass with O(1) state per open element).
// Documents are validated concurrently by a worker pool sharing one set of
// compiled models, so corpus runs amortize every compile.
//
// Usage:
//
//	xmlvalid [-dtd FILE.dtd] [-workers N] [-json] [-q] [-stats] PATH...
//
// Each PATH is an XML file or a directory walked recursively for *.xml
// files. With -dtd, every document validates against that DTD; without it,
// each document must carry its own internal subset (<!DOCTYPE root [ … ]>),
// which is parsed per document through a shared expression cache — content
// models repeated across the corpus compile once.
//
// Exit status: 0 all documents valid, 1 any invalid or unreadable,
// 2 usage error.
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
	"dregex/internal/dtd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main minus process concerns, so CLI behavior is testable; reports
// still go to stdout (via cli.Report), diagnostics to stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmlvalid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dtdPath = fs.String("dtd", "", "DTD file; omit to use each document's internal subset")
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
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: xmlvalid [-dtd FILE.dtd] [-workers N] [-json] [-q] PATH...")
		return 2
	}
	paths := cli.CollectFiles(fs.Args(), ".xml")
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "error: no XML documents found")
		return 1
	}

	// One cache for the whole run: every distinct content model — whether
	// from the -dtd file or from per-document internal subsets — compiles
	// exactly once however many declarations or documents reuse it.
	cache := dregex.NewCache(4096)
	var v *dtd.Validator
	if *dtdPath != "" {
		data, err := os.ReadFile(*dtdPath)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		d, err := dtd.ParseWithCache(string(data), cache)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		v = dtd.NewValidator(d, *workers)
	} else {
		v = dtd.NewStandaloneValidator(cache, *workers)
	}

	start := time.Now()
	results := v.ValidateFiles(paths)
	return cli.Report(results, time.Since(start), *jsonOut, *quiet, *stats, stderr)
}
