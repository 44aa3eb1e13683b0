package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns Q1, the median and Q3 of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which is
// how run-to-run spreads of this benchmark are judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 2 {
		if len(s) == 0 {
			return 0, 0, 0
		}
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process, so the next peakRSSMB reading covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// timing is a rung's median and quartiles of per-call nanoseconds, and
// the heap allocations of one call.
type timing struct {
	q1, med, q3 float64
	allocs      float64
}

// rung times f: a runtime.GC and one discarded warm-up call, one call
// counting allocations, then reps calls each after its own runtime.GC.
func rung(reps int, f func()) timing {
	runtime.GC()
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	allocs := float64(ms.Mallocs - before)
	ts := make([]float64, reps)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	q1, med, q3 := quartiles(ts)
	return timing{q1: q1, med: med, q3: q3, allocs: allocs}
}
