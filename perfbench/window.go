package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"time"
)

// The closed-loop workloads report whole-phase throughput, CPU per op and
// median latency, and the 99th percentile per fixed window, averaged over
// the middle half of the windows (windowedP99).

// window is the length of one measurement window.
const window = time.Second

// phaseResult is a measured closed-loop phase: its tally, wall and CPU
// time, and the peak RSS.
type phaseResult struct {
	st   loopStats
	t0   time.Time
	wall time.Duration
	cpu  time.Duration
	rss  float64
}

// measurePhase runs f for the given seconds after a GC that also returns
// freed memory to the OS (so set-up garbage does not count), with the
// peak-RSS mark reset and the process CPU clock read around it.
func measurePhase(f func(deadline time.Time) loopStats, seconds float64) phaseResult {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "peak RSS reset:", err)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	st := f(t0.Add(time.Duration(seconds * float64(time.Second))))
	return phaseResult{st: st, t0: t0, wall: time.Since(t0), cpu: cpuTime() - cpu0, rss: peakRSSMB()}
}

// report sets the validate-path metrics: latency from lat, the documents
// validated correctly (docs of them), and CPU per op over ops ops.
func (p phaseResult) report(out *outcome, lat loopStats, docs, ops int) {
	out.set("peak_rss_mb", "MiB", p.rss)
	out.set("docs_per_s", "1/s", float64(docs)/p.wall.Seconds())
	out.set("cpu_us_per_op", "us", float64(p.cpu.Microseconds())/float64(max(ops, 1)))
	out.set("latency_p50_us", "us", percentile(lat.lat, 50))
	out.set("latency_p99_us", "us", windowedP99(lat.lat, lat.at, p.t0, window))
}

// windowedP99 is the interquartile mean over windows of length w from t0
// of the 99th percentile of the latencies completed in each window (at
// holds the Unix-ns completion times): the mean of the middle half of the
// windows, which drops windows hit by a burst of interference or a GC
// cycle yet blends the slower and faster stretches a shared machine goes
// through. The partial window at the end is dropped.
func windowedP99(lat []float64, at []int64, t0 time.Time, w time.Duration) float64 {
	n := 0
	if len(at) > 0 {
		n = int(time.Duration(slices.Max(at)-t0.UnixNano()) / w)
	}
	byWindow := make([][]float64, n)
	for i, t := range at {
		if k := int(time.Duration(t-t0.UnixNano()) / w); k < n {
			byWindow[k] = append(byWindow[k], lat[i])
		}
	}
	var p99 []float64
	for _, l := range byWindow {
		if len(l) > 0 {
			p99 = append(p99, percentile(l, 99))
		}
	}
	if len(p99) == 0 {
		return percentile(lat, 99)
	}
	return interquartileMean(p99)
}

// interquartileMean is the mean of the middle half of xs (all of xs when
// it has fewer than four values).
func interquartileMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if q := len(s) / 4; q > 0 {
		s = s[q : len(s)-q]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
