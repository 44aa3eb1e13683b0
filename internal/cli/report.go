package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"dregex/internal/validate"
)

// DocReport is the per-document outcome the corpus validators print.
type DocReport struct {
	Path   string           `json:"path"`
	Valid  bool             `json:"valid"`
	Errors []validate.Error `json:"errors,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// Report prints the results of a corpus validation run to stdout (see
// printReports) and, with stats, the end-of-run summary to stderr. It
// returns the process exit status: 0 when every document is valid, 1
// otherwise. This is the one report surface shared by xmlvalid and
// xsdvalid, so output format and exit semantics cannot drift apart.
func Report(results []validate.Result, elapsed time.Duration, jsonOut, quiet, stats bool, stderr io.Writer) int {
	reports := make([]DocReport, len(results))
	for i, r := range results {
		reports[i] = DocReport{Path: r.Name, Valid: r.Valid(), Errors: r.Errors}
		if r.Err != nil {
			reports[i].Error = r.Err.Error()
		}
	}
	invalid, err := printReports(reports, jsonOut, quiet)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	if stats {
		rs := RunStats{Count: len(reports), Invalid: invalid, Elapsed: elapsed}
		for _, r := range reports {
			if fi, err := os.Stat(r.Path); err == nil {
				rs.Bytes += fi.Size()
			}
		}
		if err := rs.Write(stderr); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
	}
	if invalid > 0 {
		return 1
	}
	return 0
}

// printReports renders validation reports to stdout — an indented JSON
// array, or the text form (quiet suppresses per-document "valid" lines;
// the summary always prints) — and returns the number of invalid
// documents.
func printReports(reports []DocReport, jsonOut, quiet bool) (invalid int, err error) {
	for _, r := range reports {
		if !r.Valid {
			invalid++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return invalid, enc.Encode(reports)
	}
	for _, r := range reports {
		if r.Valid {
			if !quiet {
				fmt.Printf("%s: valid\n", r.Path)
			}
			continue
		}
		// A document-level error (malformed XML, say) can coexist with
		// violations found before it; report both, like JSON mode.
		if r.Error != "" {
			fmt.Printf("%s: error: %s\n", r.Path, r.Error)
		} else {
			fmt.Printf("%s: %d error(s)\n", r.Path, len(r.Errors))
		}
		for _, e := range r.Errors {
			fmt.Printf("  %s\n", e)
		}
	}
	fmt.Printf("%d document(s), %d valid, %d invalid\n",
		len(reports), len(reports)-invalid, invalid)
	return invalid, nil
}
