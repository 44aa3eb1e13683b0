// End-of-run metrics summaries for the one-shot CLIs (-stats flags). The
// tallies render through obs.WriteSummary — the same snapshot encoder
// behind dregexd's /metrics endpoint — so the daemon and the CLIs report
// through one vocabulary: counters for totals, gauges for rates, and the
// process-wide engine-tier selection counts from the dregex package.
package cli

import (
	"io"
	"time"

	"dregex"
	"dregex/internal/obs"
)

// RunStats is the end-of-run tally of a one-shot CLI: how much was
// processed, how long it took, and (implicitly, from the dregex package
// counters) which engine tiers the run's compiles landed on.
type RunStats struct {
	// Unit names what Count counts ("documents", "words"); it prefixes
	// the total/rate metric names. Empty selects "documents".
	Unit    string
	Count   int
	Invalid int
	// Bytes is the input volume (0 when unknown; the byte metrics are
	// then omitted).
	Bytes   int64
	Elapsed time.Duration
}

// Write renders the summary: totals, throughput rates, and the per-tier
// engine-selection counts, one line per series (zero counters dropped).
func (rs RunStats) Write(w io.Writer) error {
	unit := rs.Unit
	if unit == "" {
		unit = "documents"
	}
	secs := rs.Elapsed.Seconds()
	r := obs.NewRegistry()
	r.CounterFunc(unit+"_total", "Inputs processed.",
		func() uint64 { return uint64(rs.Count) })
	r.CounterFunc(unit+"_invalid_total", "Inputs that failed validation.",
		func() uint64 { return uint64(rs.Invalid) })
	if secs > 0 {
		r.GaugeFunc(unit+"_per_second", "Processing rate.",
			func() float64 { return float64(rs.Count) / secs })
	}
	if rs.Bytes > 0 {
		r.CounterFunc("bytes_total", "Input bytes processed.",
			func() uint64 { return uint64(rs.Bytes) })
		if secs > 0 {
			r.GaugeFunc("bytes_per_second", "Input throughput.",
				func() float64 { return float64(rs.Bytes) / secs })
		}
	}
	r.GaugeFunc("elapsed_seconds", "Wall-clock run time.",
		func() float64 { return secs })
	for _, tier := range dregex.EngineTiers() {
		r.CounterFunc("engine_selections_total",
			"Engine-tier selections by the Auto ladder during this run.",
			func() uint64 { return dregex.EngineSelectionCount(tier) },
			obs.L("tier", tier))
	}
	return r.WriteSummary(w)
}
