package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dregex/client"
	"dregex/internal/obs"
)

// scrapeMetrics fetches and strictly parses GET /metrics.
func scrapeMetrics(t *testing.T, hs *httptest.Server) *obs.Exposition {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if err := exp.CheckHistograms(); err != nil {
		t.Fatalf("CheckHistograms: %v", err)
	}
	return exp
}

// TestMetricsEndpoint drives validations through both schema backends and
// asserts the /metrics exposition carries the acceptance-criteria content:
// per-endpoint latency histograms with extracted quantiles, per-schema
// verdict counters, engine-tier selection counts, and cache gauges — all
// in strictly valid Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, hs, c := newTestServer(t)
	ctx := context.Background()

	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatalf("PutSchema: %v", err)
	}
	if _, err := c.PutSchema(ctx, "order", client.KindXSD, []byte(testXSD)); err != nil {
		t.Fatalf("PutSchema xsd: %v", err)
	}

	// Verdict mix: two valid, one invalid, one doc_error against the DTD;
	// one valid against the XSD (numeric pipeline).
	for _, doc := range []string{
		`<note><to>a</to><body>b</body></note>`,
		`<note><to>x</to><body>y</body></note>`,
	} {
		if r, err := c.Validate(ctx, "note", []byte(doc)); err != nil || !r.Valid {
			t.Fatalf("valid doc: %+v err=%v", r, err)
		}
	}
	if r, err := c.Validate(ctx, "note", []byte(`<note><body>b</body><to>a</to></note>`)); err != nil || r.Valid {
		t.Fatalf("invalid doc: %+v err=%v", r, err)
	}
	if r, err := c.Validate(ctx, "note", []byte(`<note><to>`)); err != nil || r.DocError == "" {
		t.Fatalf("doc error: %+v err=%v", r, err)
	}
	if r, err := c.Validate(ctx, "order", []byte(`<order><item>i</item><item>j</item></order>`)); err != nil || !r.Valid {
		t.Fatalf("xsd doc: %+v err=%v", r, err)
	}

	exp := scrapeMetrics(t, hs)

	// Per-endpoint request counter and latency histogram.
	ep := obs.L("endpoint", "validate")
	if v, ok := exp.Get("dregexd_requests_total", ep); !ok || v != 5 {
		t.Errorf("requests_total{validate} = %v ok=%v, want 5", v, ok)
	}
	if v, ok := exp.Get("dregexd_request_duration_seconds_count", ep); !ok || v != 5 {
		t.Errorf("duration count{validate} = %v ok=%v, want 5", v, ok)
	}
	for _, q := range []string{"0.5", "0.99", "0.999"} {
		v, ok := exp.Get("dregexd_request_duration_seconds_quantiles", ep, obs.L("quantile", q))
		if !ok {
			t.Errorf("missing p%s for validate duration", q)
		} else if v <= 0 || v > 60 {
			t.Errorf("p%s = %v s, implausible", q, v)
		}
	}

	// Per-schema verdict counters.
	for _, tc := range []struct {
		schema, verdict string
		want            float64
	}{
		{"note", "valid", 2}, {"note", "invalid", 1}, {"note", "doc_error", 1},
		{"order", "valid", 1},
	} {
		v, ok := exp.Get("dregexd_validate_verdicts_total",
			obs.L("schema", tc.schema), obs.L("verdict", tc.verdict))
		if !ok || v != tc.want {
			t.Errorf("verdicts{%s,%s} = %v ok=%v, want %v", tc.schema, tc.verdict, v, ok, tc.want)
		}
	}

	// Symbols fed and the derived ns/symbol gauge: each valid note feeds
	// to+body (2 symbols); the invalid one feeds both children too.
	if v, ok := exp.Get("dregexd_validate_symbols_total", obs.L("schema", "note")); !ok || v < 6 {
		t.Errorf("symbols{note} = %v ok=%v, want >= 6", v, ok)
	}
	if v, ok := exp.Get("dregexd_schema_ns_per_symbol", obs.L("schema", "note")); !ok || v <= 0 {
		t.Errorf("ns_per_symbol{note} = %v ok=%v, want > 0", v, ok)
	}
	if v, ok := exp.Get("dregexd_validate_document_bytes_total", obs.L("schema", "note")); !ok || v <= 0 {
		t.Errorf("document_bytes{note} = %v ok=%v, want > 0", v, ok)
	}

	// Engine-tier content-model placement: the note DTD's one regular
	// model (to, body) is tiny, so the Auto ladder lands it on the dense
	// table; the order XSD's counted model rides the numeric pipeline.
	if v, ok := exp.Get("dregexd_schema_models", obs.L("schema", "note"), obs.L("tier", "table")); !ok || v != 1 {
		t.Errorf("schema_models{note,table} = %v ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Get("dregexd_schema_models", obs.L("schema", "order"), obs.L("tier", "counter")); !ok || v != 1 {
		t.Errorf("schema_models{order,counter} = %v ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Get("dregexd_engine_selections_total", obs.L("tier", "table")); !ok || v < 1 {
		t.Errorf("engine_selections{table} = %v ok=%v, want >= 1", v, ok)
	}

	// Cache gauges and registry counters.
	if v, ok := exp.Get("dregexd_cache_misses_total"); !ok || v < 1 {
		t.Errorf("cache_misses = %v ok=%v, want >= 1", v, ok)
	}
	if v, ok := exp.Get("dregexd_cache_hit_rate"); !ok || math.IsNaN(v) || v < 0 || v > 1 {
		t.Errorf("cache_hit_rate = %v ok=%v, want [0,1]", v, ok)
	}
	if v, ok := exp.Get("dregexd_cache_evictions_total"); !ok || v != 0 {
		t.Errorf("cache_evictions = %v ok=%v, want 0", v, ok)
	}
	if v, ok := exp.Get("dregexd_schemas"); !ok || v != 2 {
		t.Errorf("schemas = %v ok=%v, want 2", v, ok)
	}
	if v, ok := exp.Get("dregexd_schema_swaps_total"); !ok || v != 2 {
		t.Errorf("schema_swaps = %v ok=%v, want 2", v, ok)
	}

	// Hot swap continuity: re-registering "note" must keep its verdict
	// series (get-or-create identity), and a post-swap validation lands on
	// the same counter.
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatalf("PutSchema (swap): %v", err)
	}
	if r, err := c.Validate(ctx, "note", []byte(`<note><to>a</to><body>b</body></note>`)); err != nil || !r.Valid {
		t.Fatalf("post-swap doc: %+v err=%v", r, err)
	}
	exp = scrapeMetrics(t, hs)
	if v, ok := exp.Get("dregexd_validate_verdicts_total",
		obs.L("schema", "note"), obs.L("verdict", "valid")); !ok || v != 3 {
		t.Errorf("post-swap verdicts{note,valid} = %v ok=%v, want 3 (series continuity)", v, ok)
	}

	// After deleting a schema its tier gauge reads 0 (the closure resolves
	// through the live registry), and the swap counter reflects the delete.
	if err := c.DeleteSchema(ctx, "order"); err != nil {
		t.Fatalf("DeleteSchema: %v", err)
	}
	exp = scrapeMetrics(t, hs)
	if v, ok := exp.Get("dregexd_schema_models", obs.L("schema", "order"), obs.L("tier", "counter")); !ok || v != 0 {
		t.Errorf("post-delete schema_models{order} = %v ok=%v, want 0", v, ok)
	}
	if v, ok := exp.Get("dregexd_schema_swaps_total"); !ok || v != 4 {
		t.Errorf("schema_swaps after swap+delete = %v ok=%v, want 4", v, ok)
	}
}

// TestStatsObservability covers the /v1/stats growth: latency quantiles
// per endpoint, eviction counts, engine tiers, per-schema traffic — and
// that a fresh server reports hit_rate 0 (not NaN, which would poison the
// JSON encoding) before any cache lookups.
func TestStatsObservability(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats on fresh server: %v", err)
	}
	if st.Cache.HitRate != 0 || math.IsNaN(st.Cache.HitRate) {
		t.Errorf("fresh hit rate = %v, want 0", st.Cache.HitRate)
	}

	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Validate(ctx, "note", []byte(`<note><to>a</to><body>b</body></note>`)); err != nil {
		t.Fatal(err)
	}

	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Cache.Evictions)
	}
	v := st.Endpoints["validate"]
	if v.Requests != 1 || v.P99Millis <= 0 || v.P50Millis > v.P99Millis {
		t.Errorf("validate endpoint stats: %+v", v)
	}
	if st.EngineTiers["table"] < 1 {
		t.Errorf("engine tiers missing table selections: %v", st.EngineTiers)
	}
	tr, ok := st.Schemas["note"]
	if !ok {
		t.Fatalf("stats missing schema traffic: %+v", st.Schemas)
	}
	if tr.Valid != 1 || tr.Symbols < 2 || tr.DocBytes == 0 || tr.NsPerSymbol <= 0 {
		t.Errorf("schema traffic: %+v", tr)
	}
	if tr.Models["table"] != 1 {
		t.Errorf("schema models: %+v", tr.Models)
	}
}

// TestMetricsConcurrent hammers validate, /metrics scrapes, /v1/stats and
// schema hot swaps concurrently; run under -race it is the acceptance
// criterion that the whole observability layer is race-clean, and every
// scrape must still parse strictly.
func TestMetricsConcurrent(t *testing.T) {
	_, hs, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatal(err)
	}

	const iters = 30
	var wg sync.WaitGroup
	errc := make(chan error, 4*iters)
	wg.Add(4)
	go func() { // validators
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := c.Validate(ctx, "note", []byte(`<note><to>a</to><body>b</body></note>`)); err != nil {
				errc <- fmt.Errorf("validate: %w", err)
			}
		}
	}()
	go func() { // scrapers: every snapshot must be well-formed
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := hs.Client().Get(hs.URL + "/metrics")
			if err != nil {
				errc <- err
				continue
			}
			exp, err := obs.ParseExposition(resp.Body)
			resp.Body.Close()
			if err != nil {
				errc <- fmt.Errorf("scrape %d: %w", i, err)
				continue
			}
			if err := exp.CheckHistograms(); err != nil {
				errc <- fmt.Errorf("scrape %d: %w", i, err)
			}
		}
	}()
	go func() { // hot swappers
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(testDTD)); err != nil {
				errc <- fmt.Errorf("swap: %w", err)
			}
		}
	}()
	go func() { // stats readers
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := c.Stats(ctx); err != nil {
				errc <- fmt.Errorf("stats: %w", err)
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
