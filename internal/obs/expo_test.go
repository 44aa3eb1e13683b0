package obs_test

import (
	"strings"
	"testing"

	"dregex/internal/obs"
	"dregex/internal/obs/obstest"
)

// TestExpositionRoundTrip encodes a registry with all three kinds and
// feeds the output to the strict parser: format validity, histogram
// invariants, and value agreement.
func TestExpositionRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("req_total", "Requests served.", obs.L("endpoint", "validate"))
	c.Add(7)
	r.Counter("req_total", "Requests served.", obs.L("endpoint", "compile")).Add(3)
	r.GaugeFunc("hit_rate", "Cache hit rate.", func() float64 { return 0.5 })
	h := r.Histogram("dur_seconds", "Request duration.", obs.Seconds, obs.L("endpoint", "validate"))
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1000) // 0..99µs
	}
	r.CounterFunc("ext_total", "External counter.", func() uint64 { return 42 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := obstest.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	if err := e.CheckHistograms(); err != nil {
		t.Fatalf("histogram invariants: %v\n%s", err, sb.String())
	}
	if e.Type["req_total"] != "counter" || e.Type["dur_seconds"] != "histogram" {
		t.Errorf("TYPE headers: %v", e.Type)
	}
	if v, ok := e.Get("req_total", obs.L("endpoint", "validate")); !ok || v != 7 {
		t.Errorf("req_total{validate} = %v, %v", v, ok)
	}
	if v, ok := e.Get("ext_total"); !ok || v != 42 {
		t.Errorf("ext_total = %v, %v", v, ok)
	}
	if v, ok := e.Get("dur_seconds_count", obs.L("endpoint", "validate")); !ok || v != 100 {
		t.Errorf("dur_seconds_count = %v, %v", v, ok)
	}
	// The companion quantile family is present and in seconds.
	if v, ok := e.Get("dur_seconds_quantiles", obs.L("endpoint", "validate"), obs.L("quantile", "0.99")); !ok || v <= 0 || v > 0.0002 {
		t.Errorf("p99 = %v, %v (want ~99e-6)", v, ok)
	}
}

// TestLabelEscaping round-trips a hostile label value through encoder and
// parser.
func TestLabelEscaping(t *testing.T) {
	r := obs.NewRegistry()
	hostile := "a\"b\\c\nd"
	r.Counter("x_total", "h", obs.L("k", hostile)).Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := obstest.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%q", err, sb.String())
	}
	if v, ok := e.Get("x_total", obs.L("k", hostile)); !ok || v != 1 {
		t.Errorf("escaped label did not round-trip: %v %v", v, ok)
	}
}
