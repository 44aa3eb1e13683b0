package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketMapping checks the log-linear bucket layout invariants the
// whole histogram rests on: every value maps into a bucket whose bounds
// contain it, indices are monotone in the value, and the relative bucket
// width never exceeds 2^-histSubBits.
func TestBucketMapping(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 4096, 1 << 20,
		1<<20 + 1, 1 << 40, math.MaxInt64, math.MaxUint64} {
		i := bucketIdx(v)
		if i < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		up := bucketUpper(i)
		if v > up {
			t.Errorf("value %d above bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			lo := bucketUpper(i-1) + 1
			if v < lo {
				t.Errorf("value %d below bucket %d lower bound %d", v, i, lo)
			}
			if i >= histSub {
				width := float64(up-lo) + 1
				if width/float64(lo) > 1.0/histSub+1e-9 {
					t.Errorf("bucket %d relative width %f too wide", i, width/float64(lo))
				}
			}
		}
	}
	// Exhaustive containment on a dense low range.
	for v := uint64(0); v < 1<<14; v++ {
		i := bucketIdx(v)
		if v > bucketUpper(i) {
			t.Fatalf("value %d above bucket %d upper %d", v, i, bucketUpper(i))
		}
		if i > 0 && v <= bucketUpper(i-1) {
			t.Fatalf("value %d not above bucket %d upper %d", v, i-1, bucketUpper(i-1))
		}
	}
}

// TestHistogramQuantiles records a known distribution and checks the
// extracted quantiles land within the documented ~12% bucket error.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10000; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count = %d, want 10000", s.Count)
	}
	if s.Sum != 10000*10001/2 {
		t.Fatalf("sum = %d", s.Sum)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5000}, {0.9, 9000}, {0.99, 9900}, {0.999, 9990}, {1, 10000}} {
		got := s.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.13 {
			t.Errorf("q%.3f = %.0f, want %.0f (+-13%%)", tc.q, got, tc.want)
		}
	}
	var empty Histogram
	es := empty.Snapshot()
	if es.Quantile(0.5) != 0 || es.Mean() != 0 {
		t.Errorf("empty histogram quantile/mean nonzero")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines while
// snapshotting — the recording path must be lock-free and race-clean.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const g, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(seed + int64(j)%1000)
			}
		}(int64(i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			_ = s.Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	if s := h.Snapshot(); s.Count != g*per {
		t.Errorf("count = %d, want %d", s.Count, g*per)
	}
}

// TestRegistryGetOrCreate verifies instrument identity: the same (name,
// labels) resolves to the same counter/histogram — the property that keeps
// a hot-swapped schema's series continuous.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Errorf("same series resolved to distinct counters")
	}
	c := r.Counter("x_total", "help", L("k", "w"))
	if a == c {
		t.Errorf("distinct labels resolved to the same counter")
	}
	h1 := r.Histogram("d_seconds", "help", Seconds, L("k", "v"))
	h2 := r.Histogram("d_seconds", "help", Seconds, L("k", "v"))
	if h1 != h2 {
		t.Errorf("same histogram series resolved to distinct histograms")
	}
}

// TestWriteSummary checks the one-shot rendering the CLI -stats flags use.
func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("docs_total", "h", L("verdict", "valid")).Add(12)
	r.Counter("docs_total", "h", L("verdict", "invalid")) // zero: omitted
	h := r.Histogram("dur_seconds", "h", Seconds)
	h.Observe(int64(1000000)) // 1ms
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `docs_total{verdict="valid"} 12`) {
		t.Errorf("summary missing counter: %q", out)
	}
	if strings.Contains(out, "invalid") {
		t.Errorf("summary includes zero series: %q", out)
	}
	if !strings.Contains(out, "count=1") || !strings.Contains(out, "p50=") {
		t.Errorf("summary missing histogram line: %q", out)
	}
}
