package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"dregex/client"
)

// The http-validate workload: two keep-alive connections, closed loop,
// each posting documents of 0.3–8 KB (10% invalid) to an in-process
// server holding 16 registered DTD and XSD schemas whose content models
// all fit the dense-table tier. One op is one validate request.

const (
	httpConns = 2
	httpDocs  = 400
)

// httpSchemaSizes is the element-count ladder of the 8 DTD and 8 XSD
// schemas.
var httpSchemaSizes = []int{8, 12, 16, 20, 24, 32, 40, 48}

func genHTTPInputs(seed uint64) ([]*schema, []doc) {
	g := newGen(seed, 1)
	var schemas []*schema
	for i, n := range httpSchemaSizes {
		for _, kind := range []string{"dtd", "xsd"} {
			schemas = append(schemas, g.layeredSchema(fmt.Sprintf("s%02d-%s", i, kind), kind, n))
		}
	}
	return schemas, genDocs(g, schemas, httpDocs, 300, 8000)
}

// genDocs generates n documents spread round-robin over schemas, sized
// log-uniformly in [lo, hi] bytes, every tenth invalid.
func genDocs(g *gen, schemas []*schema, n int, lo, hi float64) []doc {
	sizes := g.logLadder(n, lo, hi)
	invalid := g.invalidSlots(n)
	docs := make([]doc, n)
	for i := range docs {
		docs[i] = g.document(schemas[i%len(schemas)], sizes[i], 6, invalid[i])
	}
	return docs
}

type httpValidate struct {
	opt     options
	h       *harness
	schemas []*schema
	docs    []doc
	admin   *conn
	conns   []*conn
}

func newHTTPValidate(opt options) (instance, error) {
	schemas, docs := genHTTPInputs(opt.seed)
	h, err := startHarness(nil)
	if err != nil {
		return nil, err
	}
	x := &httpValidate{opt: opt, h: h, schemas: schemas, docs: docs, admin: h.newConn()}
	for range httpConns {
		x.conns = append(x.conns, h.newConn())
	}
	if err := putAll(context.Background(), x.admin, schemas); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

func (x *httpValidate) close() {
	for _, c := range append(x.conns, x.admin) {
		c.close()
	}
	x.h.close()
}

// loopStats is one closed-loop worker's tally.
type loopStats struct {
	lat                   []float64 // µs per op
	at                    []int64   // completion time of each op, Unix ns
	attempted, failed, ok int
}

// record adds one op that started at t0.
func (s *loopStats) record(t0 time.Time, ok bool) {
	t1 := time.Now()
	s.lat = append(s.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
	s.at = append(s.at, t1.UnixNano())
	s.attempted++
	if ok {
		s.ok++
	} else {
		s.failed++
	}
}

func (s *loopStats) add(o loopStats) {
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.ok += o.ok
}

// verdictOK checks a validate response against the document's expected
// verdict.
func verdictOK(resp *client.ValidateResponse, err error, d *doc) bool {
	if err != nil {
		return false
	}
	return resp.Valid == d.valid && (resp.Valid || len(resp.Errors) > 0 || resp.DocError != "")
}

// mismatches counts the wrong verdicts reported so far, under reportMu.
var (
	reportMu   sync.Mutex
	mismatches int
)

// reportMismatch prints the first few wrong verdicts to stderr.
func reportMismatch(d *doc, resp *client.ValidateResponse, err error) {
	reportMu.Lock()
	defer reportMu.Unlock()
	if mismatches++; mismatches > 5 {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "validate %s: %v\n", d.schema, err)
		return
	}
	fmt.Fprintf(os.Stderr, "validate %s: valid=%v, want %v (errors %v, doc error %q)\n", d.schema, resp.Valid, d.valid, resp.Errors, resp.DocError)
}

// validateLoop posts docs in order through c until the deadline (or, with
// a zero deadline, once through order), checking every verdict.
func validateLoop(c *conn, docs []doc, order []int, deadline time.Time) loopStats {
	ctx := context.Background()
	var st loopStats
	for i := 0; ; i++ {
		if deadline.IsZero() {
			if i == len(order) {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		d := &docs[order[i%len(order)]]
		t0 := time.Now()
		resp, err := c.Validate(ctx, d.schema, d.body)
		ok := verdictOK(resp, err, d)
		st.record(t0, ok)
		if !ok {
			reportMismatch(d, resp, err)
		}
	}
	return st
}

// orders gives each of n workers its own seeded permutation of the
// documents.
func orders(seed uint64, n, docs int) [][]int {
	g := newGen(seed, 99)
	out := make([][]int, n)
	for i := range out {
		out[i] = g.r.Perm(docs)
	}
	return out
}

// runLoops runs one closed-loop validate worker per connection until the
// deadline and merges their tallies.
func runLoops(conns []*conn, docs []doc, ords [][]int, deadline time.Time) loopStats {
	parts := make([]loopStats, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = validateLoop(c, docs, ords[i], deadline)
		}()
	}
	wg.Wait()
	var all loopStats
	for _, p := range parts {
		all.add(p)
	}
	return all
}

func (x *httpValidate) measure(seconds float64) (*outcome, error) {
	ords := orders(x.opt.seed, len(x.conns), len(x.docs))
	// Warm-up: one discarded pass of every document on every connection.
	warm := runLoops(x.conns, x.docs, ords, time.Time{})
	out := &outcome{attempted: warm.attempted, failed: warm.failed}
	if warm.failed > 0 {
		return out, nil
	}
	out.attempted, out.failed = 0, 0
	phase := measurePhase(func(deadline time.Time) loopStats {
		return runLoops(x.conns, x.docs, ords, deadline)
	}, seconds)
	out.attempted += phase.st.attempted
	out.failed += phase.st.failed
	phase.report(out, phase.st, phase.st.ok, phase.st.attempted)

	t0 := time.Now()
	put := putProbe(x.opt, x.admin, x.schemas)
	out.attempted += put.attempted
	out.failed += put.failed
	out.set("put_p50_ms", "ms", percentile(put.lat, 50)/1e3)
	out.set("put_p99_ms", "ms", windowedP99(put.lat, put.at, t0, putWindow)/1e3)
	// Restore the schemas the documents were generated for.
	if err := putAll(bgCtx, x.admin, x.schemas); err != nil {
		return nil, err
	}
	return out, x.h.checkConns()
}

// putOps is how many registrations the probe makes: 50 of each schema.
// putWindow is the window of their 99th percentile, about 80 PUTs: a
// multi-millisecond PUT is preempted now and then on a shared machine, and
// the windows those land in are dropped.
const (
	putOps    = 800
	putWindow = 250 * time.Millisecond
)

// putProbe registers new versions of the resident schemas, round-robin
// over one connection: each PUT carries a freshly generated schema of the
// same name, kind and size, so its content models compile. Generation and
// a runtime.GC before each PUT, as on an otherwise idle server, are
// outside the timers. Latencies are in µs.
func putProbe(opt options, c *conn, schemas []*schema) loopStats {
	g := newGen(opt.seed, 4)
	n := putOps
	if opt.smoke {
		n = 100
	}
	var st loopStats
	for i := 0; i < n; i++ {
		old := schemas[i%len(schemas)]
		// layeredSchema(n) declares n elements plus the root's head.
		s := g.layeredSchema(old.name, old.kind, len(old.order)-1)
		src := s.source()
		runtime.GC()
		t0 := time.Now()
		info, err := c.PutSchema(bgCtx, s.name, s.kind, src)
		if err == nil {
			err = checkWarnings(s, info.Warnings)
		}
		st.record(t0, err == nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "put:", err)
		}
	}
	return st
}

func (x *httpValidate) trace(seconds float64) (*outcome, error) {
	return runLadder(&ladder{opt: x.opt, schemas: x.schemas, docs: x.docs, replay: func() (int, error) {
		ords := orders(x.opt.seed, len(x.conns), len(x.docs))
		st := runLoops(x.conns, x.docs, ords, time.Now().Add(time.Duration(seconds/4*float64(time.Second))))
		if st.failed > 0 {
			return st.attempted, fmt.Errorf("replay: %d wrong verdicts", st.failed)
		}
		return st.attempted, x.h.checkConns()
	}})
}
