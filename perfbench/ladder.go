package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"dregex"
	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/dtd"
	"dregex/internal/follow"
	"dregex/internal/match/table"
	"dregex/internal/parsetree"
	"dregex/internal/server"
	"dregex/internal/skeleton"
	"dregex/internal/xmltok"
	"dregex/internal/xsd"
)

// The traced run. It replays the workload's own schemas and documents
// through the public function of each layer, from the benchmark's code:
//
//	xmltok → stepping with pre-interned symbols → dtd/xsd
//	ValidateBytesReusing → ValidateReusing → server handler → loopback
//	HTTP via client.Client → parallel HTTP
//
// and the compile pipeline rung by rung:
//
//	ast parse → parsetree.Build → follow.New → skeleton.Build →
//	determinism.CheckSkeletons → table.New
//
// Every rung is warmed and GC-isolated and repeated ladderReps times
// (rung in stats.go); values are medians. A layer's self time is its
// time minus the rungs below it. HTTP spans come from a client-side span
// per request and a server-side middleware span matched by request id;
// they stay in memory and are written to spans.jsonl in the work
// directory when the ladder ends.

const ladderReps = 7

// ladder accumulates one traced run.
type ladder struct {
	opt     options
	out     *outcome
	schemas []*schema
	docs    []doc
	// replay runs the workload briefly and returns its op count, for the
	// Go runtime metrics.
	replay func() (int, error)

	comp      map[string]*compiled
	table     []string // printed ladder rows
	rungs     []string // every timed rung: median [quartiles] per call
	spansFile []string
}

// compiled is a schema compiled by its front end.
type compiled struct {
	s     *schema
	d     *dtd.DTD
	x     *xsd.Schema
	types map[string]*xsd.Type // XSD element name → its type
}

func (l *ladder) fail(format string, args ...any) {
	l.out.failed++
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func (l *ladder) set(name, unit string, v float64) { l.out.set(name, unit, v) }

// reps is ladderReps, or 1 in smoke mode.
func (l *ladder) reps() int {
	if l.opt.smoke {
		return 1
	}
	return ladderReps
}

// time times f as a rung and records its median and quartiles for the
// rung table.
func (l *ladder) time(name string, f func()) timing {
	t := rung(l.reps(), f)
	l.rungs = append(l.rungs, fmt.Sprintf("  %-40s %14.0f ns [%.0f, %.0f] %10.0f allocs", name, t.med, t.q1, t.q3, t.allocs))
	return t
}

func runLadder(l *ladder) (*outcome, error) {
	l.out = &outcome{}
	cache := dregex.NewCache(4096)
	l.comp = map[string]*compiled{}
	for _, s := range l.schemas {
		c := &compiled{s: s}
		var err error
		if s.kind == "dtd" {
			c.d, err = dtd.ParseWithCache(string(s.source()), cache)
		} else {
			c.x, err = xsd.ParseWithCache(s.source(), cache)
			if err == nil {
				c.types = map[string]*xsd.Type{}
				for _, t := range c.x.AllTypes {
					if n, ok := strings.CutPrefix(t.Name, "T_"); ok {
						c.types[n] = t
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		l.comp[s.name] = c
	}
	l.out.attempted = len(l.docs)
	if err := l.validatePath(); err != nil {
		return nil, err
	}
	if err := l.compileLadder(); err != nil {
		return nil, err
	}
	l.frontEnds()
	if err := l.runtimeMetrics(); err != nil {
		return nil, err
	}
	fmt.Println(strings.Join(l.table, "\n"))
	fmt.Println("\nrungs (median [Q1, Q3] over the repetitions, allocations of one call)")
	fmt.Println(strings.Join(l.rungs, "\n"))
	return l.out, l.writeSpans()
}

// stepper is one pre-interned child sequence and the matcher that steps
// it.
type stepper struct {
	tier string
	n    int
	run  func() bool
}

func (l *ladder) stepperFor(d *doc, w word) (stepper, error) {
	c := l.comp[d.schema]
	var expr *dregex.Expr
	if c.d != nil {
		el := c.d.Elements[w.elem]
		if el == nil || el.CM == nil {
			return stepper{}, fmt.Errorf("element %s of %s has no content model", w.elem, d.schema)
		}
		expr = el.CM
	} else {
		t := c.types[w.elem]
		if t == nil {
			return stepper{}, fmt.Errorf("element %s of %s has no type", w.elem, d.schema)
		}
		if t.Numeric {
			m := t.NCM.Matcher()
			syms := t.NCM.Intern(w.names)
			return stepper{tier: dregex.TierCounter, n: len(syms), run: func() bool { return m.MatchWord(syms) }}, nil
		}
		expr = t.CM
	}
	m, err := expr.Matcher(dregex.Auto)
	if err != nil {
		return stepper{}, err
	}
	syms := expr.Intern(w.names)
	return stepper{tier: expr.AutoAlgorithm().String(), n: len(syms), run: func() bool { return m.MatchWord(syms) }}, nil
}

func runSteppers(ss []stepper) bool {
	ok := true
	for _, s := range ss {
		ok = s.run() && ok
	}
	return ok
}

func symbols(ss []stepper) int {
	n := 0
	for _, s := range ss {
		n += s.n
	}
	return n
}

// kindRungs are the per-document validate-path rungs of one schema kind,
// in ns per document.
type kindRungs struct {
	docs                                          int
	tok, step, val, read, handler, rt, span, self float64
	tokAllocs, valAllocs, handlerAllocs           float64
}

func (l *ladder) validatePath() error {
	byKind := map[string][]*doc{}
	tiers := map[string][]stepper{}
	var allSteps []stepper
	stepsOf := map[string][]stepper{}
	var totalBytes, nDocs int
	for i := range l.docs {
		d := &l.docs[i]
		kind := l.comp[d.schema].s.kind
		byKind[kind] = append(byKind[kind], d)
		totalBytes += len(d.body)
		nDocs++
		for _, w := range d.words {
			st, err := l.stepperFor(d, w)
			if err != nil {
				return err
			}
			stepsOf[kind] = append(stepsOf[kind], st)
			tiers[st.tier] = append(tiers[st.tier], st)
			allSteps = append(allSteps, st)
		}
	}
	// Every recorded child sequence was generated from its model before
	// any mutation, so each must be accepted.
	for _, st := range allSteps {
		if !st.run() {
			l.fail("stepping rejected a generated child sequence (tier %s, %d symbols)", st.tier, st.n)
		}
	}

	// xmltok over every document.
	var tok xmltok.Tokenizer
	tokAll := l.time("xmltok, all documents", func() {
		for _, d := range l.docs {
			tokenize(&tok, d.body)
		}
	})
	l.set("xmltok.ns_per_byte", "ns/B", tokAll.med/float64(totalBytes))
	l.set("xmltok.allocs_per_doc", "count", tokAll.allocs/float64(nDocs))

	// Stepping per tier: the workload's own child sequences, or the
	// engine probe for tiers the workload does not reach.
	probe := l.probe()
	for _, tier := range []string{"table", "kore", "pathdecomp", dregex.TierCounter} {
		ss, src := tiers[tier], "workload"
		if len(ss) == 0 {
			ss, src = probe[tier], "probe"
		}
		t := l.time("stepping "+tier, func() { runSteppers(ss) })
		name := "match." + tier + ".ns_per_symbol"
		if tier == dregex.TierCounter {
			name = "numeric.counter.ns_per_symbol"
		}
		l.set(name, "ns", t.med/float64(max(symbols(ss), 1)))
		l.table = append(l.table, fmt.Sprintf("stepping %-10s %8.2f ns/symbol over %d symbols (%s)", tier, t.med/float64(max(symbols(ss), 1)), symbols(ss), src))
	}
	l.set("match.symbols_per_doc", "count", float64(symbols(allSteps))/float64(nDocs))
	l.flatness(tiers, probe)

	// Per-kind rungs, then the HTTP rungs.
	rows := map[string]*kindRungs{}
	var sumVal, sumValAllocs, sumSelf, sumRead float64
	srv, err := newLadderServer(l.schemas)
	if err != nil {
		return err
	}
	for _, kind := range []string{"dtd", "xsd"} {
		docs := byKind[kind]
		if len(docs) == 0 {
			continue
		}
		n := float64(len(docs))
		r := &kindRungs{docs: len(docs)}
		rows[kind] = r
		t := l.time(kind+" xmltok", func() {
			for _, d := range docs {
				tokenize(&tok, d.body)
			}
		})
		r.tok, r.tokAllocs = t.med/n, t.allocs/n
		ss := stepsOf[kind]
		r.step = l.time(kind+" stepping", func() { runSteppers(ss) }).med / n

		var dst dtd.DocState
		var xst xsd.DocState
		validate := func(d *doc, rd bool) bool {
			c := l.comp[d.schema]
			var nerr int
			var err error
			if c.d != nil {
				var es []dtd.ValidationError
				if rd {
					es, err = c.d.ValidateReusing(bytes.NewReader(d.body), &dst)
				} else {
					es, err = c.d.ValidateBytesReusing(d.body, &dst)
				}
				nerr = len(es)
			} else {
				var es []xsd.ValidationError
				if rd {
					es, err = c.x.ValidateReusing(bytes.NewReader(d.body), &xst)
				} else {
					es, err = c.x.ValidateBytesReusing(d.body, &xst)
				}
				nerr = len(es)
			}
			return (err == nil && nerr == 0) == d.valid
		}
		for _, d := range docs {
			if !validate(d, false) || !validate(d, true) {
				l.fail("validator verdict for a %s document of %s is not valid=%v", kind, d.schema, d.valid)
			}
		}
		t = l.time(kind+" ValidateBytesReusing", func() {
			for _, d := range docs {
				validate(d, false)
			}
		})
		r.val, r.valAllocs = t.med/n, t.allocs/n
		r.read = l.time(kind+" ValidateReusing", func() {
			for _, d := range docs {
				validate(d, true)
			}
		}).med / n

		for _, d := range docs {
			if !srv.check(d) {
				l.fail("handler verdict for a %s document of %s is not valid=%v", kind, d.schema, d.valid)
			}
		}
		t = l.time(kind+" handler", func() {
			for _, d := range docs {
				srv.validate(d)
			}
		})
		r.handler, r.handlerAllocs = t.med/n, t.allocs/n
		sumVal += r.val * n
		sumValAllocs += r.valAllocs * n
		sumSelf += (r.val - r.tok - r.step) * n
		sumRead += (r.read - r.val) * n
		l.set("validate."+kind+".ns_per_doc", "ns", r.val)
	}
	nd := float64(nDocs)
	l.set("validate.allocs_per_doc", "count", sumValAllocs/nd)
	l.set("validate.self_ns_per_doc", "ns", sumSelf/nd)
	l.set("validate.read_ns_per_doc", "ns", sumRead/nd)
	var sumHandler, sumHandlerSelf, sumHandlerAllocs float64
	for _, r := range rows {
		n := float64(r.docs)
		sumHandler += r.handler * n
		sumHandlerSelf += (r.handler - r.read) * n
		sumHandlerAllocs += r.handlerAllocs * n
	}
	l.set("server.handler_ns_per_doc", "ns", sumHandler/nd)
	l.set("server.handler_self_ns_per_doc", "ns", sumHandlerSelf/nd)
	l.set("server.handler_allocs_per_doc", "count", sumHandlerAllocs/nd)
	return l.httpRungs(byKind, rows)
}

func tokenize(tok *xmltok.Tokenizer, body []byte) {
	tok.Reset(body)
	for {
		if _, err := tok.Next(); err != nil {
			return
		}
	}
}

// flatness is ns/symbol on the longest quarter of child sequences over
// ns/symbol on the shortest quarter, on the tier that steps the most
// symbols of the workload.
func (l *ladder) flatness(tiers, probe map[string][]stepper) {
	best := ""
	for tier, ss := range tiers {
		if best == "" || symbols(ss) > symbols(tiers[best]) {
			best = tier
		}
	}
	ss := slices.Clone(tiers[best])
	if len(ss) < 8 {
		best, ss = "kore", slices.Clone(probe["kore"])
	}
	slices.SortFunc(ss, func(a, b stepper) int { return a.n - b.n })
	q := len(ss) / 4
	short, long := ss[:q], ss[len(ss)-q:]
	// Repeat the short sequences so both sides step about as many
	// symbols per timed call.
	times := max(1, symbols(long)/max(symbols(short), 1))
	ts := l.time("flatness, shortest quarter", func() {
		for range times {
			runSteppers(short)
		}
	})
	tl := l.time("flatness, longest quarter", func() { runSteppers(long) })
	nsShort := ts.med / float64(max(times*symbols(short), 1))
	nsLong := tl.med / float64(max(symbols(long), 1))
	l.set("match.flatness", "ratio", nsLong/nsShort)
	l.table = append(l.table, fmt.Sprintf("flatness (%s): %.2f ns/symbol on the longest quarter (%d symbols), %.2f on the shortest (%d)", best, nsLong, symbols(long), nsShort, symbols(short)))
}

// probe compiles the engine probe: a (t1 | … | t2000)* model (k-ORE
// tier), a starred 3-occurrence block model (path decomposition) and
// {m,n} counter models (numeric tier), each with generated words.
func (l *ladder) probe() map[string][]stepper {
	g := newGen(l.opt.seed, 7)
	s := newSchema("probe", "dtd", "")
	out := map[string][]stepper{}
	// iter bounds the star iterations of a walk: about 2000 symbols per
	// word of the choice, 5000 of the block model.
	for _, p := range []struct {
		m    *model
		iter int
	}{{g.wideChoice(s, 2000), 4000}, {g.blockModel(s, 400), 8}} {
		m := p.m
		e, err := dregex.Compile(m.dtd(), dregex.DTD)
		if err != nil {
			l.fail("probe compile: %v", err)
			continue
		}
		mt, err := e.Matcher(dregex.Auto)
		if err != nil {
			l.fail("probe matcher: %v", err)
			continue
		}
		for range 8 {
			syms := e.Intern(g.walk(nil, m, p.iter))
			out[e.AutoAlgorithm().String()] = append(out[e.AutoAlgorithm().String()], stepper{n: len(syms), run: func() bool { return mt.MatchWord(syms) }})
		}
	}
	for _, m := range l.counterModels(g) {
		e, err := dregex.CompileNumeric(m.dtd(), dregex.XSD)
		if err != nil {
			l.fail("probe numeric compile %s: %v", m.dtd(), err)
			continue
		}
		mt := e.Matcher()
		for range 4 {
			syms := e.Intern(g.walk(nil, m, 50))
			out[dregex.TierCounter] = append(out[dregex.TierCounter], stepper{n: len(syms), run: func() bool { return mt.MatchWord(syms) }})
		}
	}
	return out
}

// counterModels are small {m,n} models over fresh names, the shape of
// XSD content models with counters.
func (l *ladder) counterModels(g *gen) []*model {
	var ms []*model
	for range 16 {
		var parts []*model
		for range 3 + g.r.IntN(5) {
			lo := g.r.IntN(3)
			parts = append(parts, count(sym(g.fresh()), lo, lo+1+g.r.IntN(8)))
		}
		ms = append(ms, count(seq(sym(g.fresh()), seq(parts...)), 1, 100))
	}
	return ms
}

// ladderServer drives server.Handler directly, without a network.
type ladderServer struct {
	h    http.Handler
	reqs map[*doc]*http.Request
	w    *discardWriter
	body bytes.Reader
}

// discardWriter is a reusable http.ResponseWriter that keeps the last
// response body for verdict checks.
type discardWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(code int) {
	w.code = code
}
func (w *discardWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *discardWriter) reset() {
	clear(w.hdr)
	w.code = http.StatusOK
	w.buf.Reset()
}

func newLadderServer(schemas []*schema) (*ladderServer, error) {
	ls := &ladderServer{h: server.New(server.Config{}).Handler(), reqs: map[*doc]*http.Request{}, w: &discardWriter{hdr: http.Header{}}}
	for _, s := range schemas {
		if code := ls.put(s.name, s.kind, s.source()); code != http.StatusCreated && code != http.StatusOK {
			return nil, fmt.Errorf("handler PUT %s: status %d: %s", s.name, code, ls.w.buf.String())
		}
	}
	return ls, nil
}

func (ls *ladderServer) put(name, kind string, src []byte) int {
	req, _ := http.NewRequest(http.MethodPut, "/v1/schemas/"+name+"?kind="+kind, bytes.NewReader(src))
	ls.w.reset()
	ls.h.ServeHTTP(ls.w, req)
	return ls.w.code
}

// validate posts d to the handler; the request is built once per
// document and its body rewound on every call.
func (ls *ladderServer) validate(d *doc) {
	req := ls.reqs[d]
	if req == nil {
		req, _ = http.NewRequest(http.MethodPost, "/v1/validate?schema="+d.schema, nil)
		req.Header.Set("Content-Type", "application/xml")
		ls.reqs[d] = req
	}
	ls.body.Reset(d.body)
	req.Body = io.NopCloser(&ls.body)
	ls.w.reset()
	ls.h.ServeHTTP(ls.w, req)
}

func (ls *ladderServer) check(d *doc) bool {
	ls.validate(d)
	var resp struct {
		Valid bool `json:"valid"`
	}
	return ls.w.code == http.StatusOK && json.Unmarshal(ls.w.buf.Bytes(), &resp) == nil && resp.Valid == d.valid
}

// httpRungs times the loopback round trip per kind with client and
// server spans, the tracing overhead, wire bytes and the parallel
// speed-up, and prints the validate ladder.
func (l *ladder) httpRungs(byKind map[string][]*doc, rows map[string]*kindRungs) error {
	spans := newSpanLog(1 << 20)
	h, err := startHarness(spans)
	if err != nil {
		return err
	}
	defer h.close()
	c := h.newConn()
	defer c.close()
	if err := putAll(bgCtx, c, l.schemas); err != nil {
		return err
	}
	// pass posts docs once; every request records its client span, and
	// with check its verdict is checked too.
	next := 0
	var clientStart, clientEnd []int64
	pass := func(docs []*doc, check bool) {
		for _, d := range docs {
			c.tr.id = next
			next++
			t0 := spans.now()
			resp, err := c.Validate(bgCtx, d.schema, d.body)
			clientStart = append(clientStart, t0)
			clientEnd = append(clientEnd, spans.now())
			if check && !verdictOK(resp, err, d) {
				l.fail("HTTP verdict for a document of %s is not valid=%v (%v)", d.schema, d.valid, err)
			}
		}
	}
	var all []*doc
	var sumRT, sumSelf, nAll float64
	for _, kind := range []string{"dtd", "xsd"} {
		docs := byKind[kind]
		if len(docs) == 0 {
			continue
		}
		all = append(all, docs...)
		n := float64(len(docs))
		pass(docs, true)
		t := l.time(kind+" HTTP round trip", func() { pass(docs, false) })
		r := rows[kind]
		r.rt = t.med / n
		// Self time of HTTP: each request's client span minus the server
		// span it covers, over the timed passes (the last ones).
		var self, span float64
		timed := l.reps() * len(docs)
		for id := next - timed; id < next; id++ {
			s := float64(spans.end[id].Load() - spans.start[id].Load())
			span += s
			self += float64(clientEnd[id]-clientStart[id]) - s
		}
		r.span, r.self = span/float64(timed), self/float64(timed)
		sumRT += r.rt * n
		sumSelf += r.self * n
		nAll += n
	}
	for id := range next {
		l.spansFile = append(l.spansFile, fmt.Sprintf(`{"id":%d,"client":[%d,%d],"server":[%d,%d]}`, id, clientStart[id], clientEnd[id], spans.start[id].Load(), spans.end[id].Load()))
	}
	l.set("http.roundtrip_ns_per_doc", "ns", sumRT/nAll)
	l.set("http.self_ns_per_doc", "ns", sumSelf/nAll)

	w0, r0 := h.ln.written.Load(), h.ln.read.Load()
	t := rung(1, func() { pass(all, false) })
	// rung ran the pass three times: warm-up, allocation count, timing.
	l.set("http.wire_bytes_per_doc", "B", float64(h.ln.written.Load()-w0+h.ln.read.Load()-r0)/(3*nAll))
	l.set("http.allocs_per_doc", "count", t.allocs/nAll)

	// Tracing overhead: the same pass on an untraced server and client.
	plain, err := startHarness(nil)
	if err != nil {
		return err
	}
	defer plain.close()
	pc := plain.newConn()
	defer pc.close()
	if err := putAll(bgCtx, pc, l.schemas); err != nil {
		return err
	}
	// plainPass posts every document once on each connection, in order.
	docs := make([]doc, len(all))
	order := make([]int, len(all))
	for i, d := range all {
		docs[i], order[i] = *d, i
	}
	plainPass := func(conns []*conn) {
		ords := [][]int{order, order}
		runLoops(conns, docs, ords[:len(conns)], time.Time{})
	}
	traced := l.time("HTTP pass, traced", func() { pass(all, false) })
	untraced := l.time("HTTP pass, untraced", func() { plainPass([]*conn{pc}) })
	l.set("trace.overhead_ratio", "ratio", traced.med/untraced.med)

	pc2 := plain.newConn()
	defer pc2.close()
	par := l.time("HTTP pass, 2 connections", func() { plainPass([]*conn{pc, pc2}) })
	l.set("http.parallel_speedup", "ratio", 2*untraced.med/par.med)
	if err := h.checkConns(); err != nil {
		return err
	}
	if err := plain.checkConns(); err != nil {
		return err
	}

	l.table = append(l.table, "", "validate ladder (ns/doc, allocs/doc, share of the round trip)")
	for _, kind := range []string{"dtd", "xsd"} {
		r := rows[kind]
		if r == nil {
			continue
		}
		l.table = append(l.table, fmt.Sprintf("%s (%d docs):", kind, r.docs))
		row := func(name string, ns, allocs float64) {
			l.table = append(l.table, fmt.Sprintf("  %-34s %12.0f ns %8.1f allocs %6.1f%%", name, ns, allocs, 100*ns/r.rt))
		}
		row("xmltok", r.tok, r.tokAllocs)
		row("stepping (pre-interned)", r.step, 0)
		row("validator self", r.val-r.tok-r.step, r.valAllocs-r.tokAllocs)
		row("reader (ValidateReusing - Bytes)", r.read-r.val, 0)
		row("handler self", r.handler-r.read, r.handlerAllocs-r.valAllocs)
		row("handler span in HTTP", r.span, 0)
		row("HTTP self (client span - server)", r.self, 0)
		row("round trip", r.rt, 0)
	}
	l.table = append(l.table, fmt.Sprintf("tracing overhead: %.3fx the untraced round trip; parallel speed-up with 2 connections: %.2fx", traced.med/untraced.med, 2*untraced.med/par.med))
	return nil
}

// compileLadder times the compile pipeline rung by rung over size
// buckets: the workload's own content models, and random deterministic
// expressions of 1k to 64k nodes.
func (l *ladder) compileLadder() error {
	type bucket struct {
		name string
		srcs []string
	}
	var small []string
	for _, s := range l.schemas {
		for _, n := range s.order {
			if m := s.models[n]; m != nil && !hasCount(m) {
				small = append(small, m.dtd())
			}
		}
	}
	buckets := []bucket{{"workload", small}}
	g := newGen(l.opt.seed, 8)
	sizes := []int{1000, 4000, 16000, 64000}
	if l.opt.smoke {
		sizes = sizes[:2]
	}
	for _, nodes := range sizes {
		s := newSchema("", "dtd", "")
		buckets = append(buckets, bucket{fmt.Sprintf("%dk", nodes/1000), []string{g.bigSore(s, nodes).dtd()}})
	}
	rungNames := []string{"ast", "parsetree", "follow", "skeleton", "determinism"}
	sums := make([]float64, len(rungNames))
	var nodesAll, allocsAll, tableNs, tableEntries float64
	perNode := map[string]float64{}
	l.table = append(l.table, "", "compile ladder (ns/node per rung)")
	for _, b := range buckets {
		type cm struct {
			alpha *ast.Alphabet
			root  *ast.Node
			tree  *parsetree.Tree
			fol   *follow.Index
			sks   *skeleton.Skeletons
		}
		ms := make([]cm, len(b.srcs))
		parse := func() {
			for i, src := range b.srcs {
				alpha := ast.NewAlphabet()
				// The sources were parsed once before timing, so the
				// error is known to be nil.
				e, _ := ast.ParseDTD(src, alpha)
				ms[i].alpha, ms[i].root = alpha, ast.Normalize(ast.DesugarPlus(ast.Normalize(e)))
			}
		}
		for _, src := range b.srcs {
			if _, err := ast.ParseDTD(src, ast.NewAlphabet()); err != nil {
				return fmt.Errorf("compile ladder: %w", err)
			}
		}
		build := func() {
			for i := range ms {
				ms[i].tree, _ = parsetree.Build(ms[i].root, ms[i].alpha)
			}
		}
		fol := func() {
			for i := range ms {
				ms[i].fol = follow.New(ms[i].tree)
			}
		}
		skel := func() {
			for i := range ms {
				ms[i].sks = skeleton.Build(ms[i].tree, ms[i].fol, skeleton.Options{})
			}
		}
		det := func() {
			for i := range ms {
				determinism.CheckSkeletons(ms[i].tree, ms[i].sks, false)
			}
		}
		// Repeat small buckets inside one timed call so each call takes
		// long enough to time.
		inner := 1
		parse()
		build()
		nodes := 0
		for i := range ms {
			if ms[i].tree == nil {
				return fmt.Errorf("compile ladder: parsetree.Build failed for bucket %s", b.name)
			}
			nodes += ms[i].tree.N()
		}
		if nodes < 20000 {
			inner = 20000/nodes + 1
		}
		fol()
		skel()
		for i := range ms {
			if !determinism.CheckSkeletons(ms[i].tree, ms[i].sks, false).Deterministic {
				l.fail("compile ladder: a model built deterministic is reported nondeterministic (bucket %s)", b.name)
				return nil
			}
		}
		fs := []func(){parse, build, fol, skel, det}
		line := fmt.Sprintf("  %-9s %7d nodes", b.name, nodes)
		total := 0.0
		for k, f := range fs {
			t := l.time(b.name+" "+rungNames[k], func() {
				for range inner {
					f()
				}
			})
			ns := t.med / float64(inner)
			total += ns
			sums[k] += ns
			allocsAll += t.allocs / float64(inner)
			line += fmt.Sprintf(" %s %7.1f", rungNames[k], ns/float64(nodes))
		}
		perNode[b.name] = total / float64(nodes)
		nodesAll += float64(nodes)
		// table.New only where the dense table fits its budget.
		var eligible []int
		entries := 0
		for i := range ms {
			if d, err := table.New(ms[i].tree, ms[i].fol, table.DefaultBudget); err == nil {
				eligible = append(eligible, i)
				entries += d.Entries()
			}
		}
		if len(eligible) > 0 {
			t := l.time(b.name+" table.New", func() {
				for range inner {
					for _, i := range eligible {
						_, _ = table.New(ms[i].tree, ms[i].fol, table.DefaultBudget)
					}
				}
			})
			tableNs += t.med / float64(inner)
			tableEntries += float64(entries)
			line += fmt.Sprintf(" table %5.2f ns/entry", t.med/float64(inner)/float64(entries))
		}
		l.table = append(l.table, line)
	}
	for k, name := range rungNames {
		metric := name + ".ns_per_node"
		if name == "ast" {
			metric = "ast.parse_ns_per_node"
		}
		l.set(metric, "ns", sums[k]/nodesAll)
	}
	l.set("table.build_ns_per_entry", "ns", tableNs/max(tableEntries, 1))
	l.set("compile.allocs_per_node", "count", allocsAll/nodesAll)
	largest := buckets[len(buckets)-1].name
	l.set("compile.flatness", "ratio", perNode[largest]/perNode["1k"])

	// numeric.compile_ns_per_node: the counter models, compiled whole.
	ms := l.counterModels(newGen(l.opt.seed, 9))
	nodes := 0
	for _, m := range ms {
		nodes += m.size()
	}
	srcs := make([]string, len(ms))
	for i, m := range ms {
		srcs[i] = m.dtd()
		if _, err := dregex.CompileNumeric(srcs[i], dregex.XSD); err != nil {
			return fmt.Errorf("numeric compile %s: %w", srcs[i], err)
		}
	}
	t := l.time("numeric compile", func() {
		for _, src := range srcs {
			_, _ = dregex.CompileNumeric(src, dregex.XSD)
		}
	})
	l.set("numeric.compile_ns_per_node", "ns", t.med/float64(nodes))
	return nil
}

func hasCount(m *model) bool {
	if m.op == mCount {
		return true
	}
	for _, k := range m.kids {
		if hasCount(k) {
			return true
		}
	}
	return false
}

// frontEnds times schema parsing net of content-model compiles, the PUT
// handler net of schema parsing, and expression-cache hits.
func (l *ladder) frontEnds() {
	srcs := make([][]byte, len(l.schemas))
	for i, s := range l.schemas {
		srcs[i] = s.source()
	}
	parseAll := func(cache func() *dregex.Cache) {
		for i, s := range l.schemas {
			if s.kind == "dtd" {
				_, _ = dtd.ParseWithCache(string(srcs[i]), cache())
			} else {
				_, _ = xsd.ParseWithCache(srcs[i], cache())
			}
		}
	}
	fresh := func() *dregex.Cache { return dregex.NewCache(4096) }
	parse := l.time("schema parse, fresh cache", func() { parseAll(fresh) })
	// The content-model compiles the front ends do, through a fresh cache
	// per schema as ParseWithCache above had.
	type src struct {
		model   string
		syntax  dregex.Syntax
		numeric bool
	}
	var models [][]src
	for _, s := range l.schemas {
		c := l.comp[s.name]
		var ms []src
		if c.d != nil {
			for _, n := range c.d.Order {
				if el := c.d.Elements[n]; el.Kind == dtd.Children {
					ms = append(ms, src{el.Model, dregex.DTD, false})
				}
			}
		} else {
			for _, t := range c.x.AllTypes {
				if t.Kind == xsd.Children {
					ms = append(ms, src{t.Model, dregex.XSD, t.Numeric})
				}
			}
		}
		models = append(models, ms)
	}
	compileAll := func(cache func() *dregex.Cache) {
		for _, ms := range models {
			c := cache()
			for _, m := range ms {
				if m.numeric {
					_, _ = c.GetNumeric(m.model, m.syntax)
					continue
				}
				if e, err := c.Get(m.model, m.syntax); err == nil && e.IsDeterministic() {
					_, _ = e.Matcher(dregex.Auto)
				}
			}
		}
	}
	comp := l.time("content-model compiles", func() { compileAll(fresh) })
	n := float64(len(l.schemas))
	l.set("schema.parse_self_ns", "ns", (parse.med-comp.med)/n)

	// PUT handler against a warm cache (a re-registration) minus parsing
	// against a warm cache.
	warm := dregex.NewCache(4096)
	parseAll(func() *dregex.Cache { return warm })
	warmParse := l.time("schema parse, warm cache", func() { parseAll(func() *dregex.Cache { return warm }) })
	ls, err := newLadderServer(l.schemas)
	if err != nil {
		l.fail("%v", err)
		return
	}
	put := l.time("PUT handler, warm cache", func() {
		for i, s := range l.schemas {
			if code := ls.put(s.name, s.kind, srcs[i]); code != http.StatusOK {
				l.fail("handler re-PUT %s: status %d", s.name, code)
			}
		}
	})
	l.set("server.put_self_ns", "ns", (put.med-warmParse.med)/n)

	var keys []src
	for _, ms := range models {
		keys = append(keys, ms...)
	}
	compileAll(func() *dregex.Cache { return warm })
	get := l.time("cache hits", func() {
		for _, k := range keys {
			if k.numeric {
				_, _ = warm.GetNumeric(k.model, k.syntax)
			} else {
				_, _ = warm.Get(k.model, k.syntax)
			}
		}
	})
	l.set("cache.get_ns", "ns", get.med/float64(max(len(keys), 1)))
	l.table = append(l.table, "", fmt.Sprintf("front ends: parse %.0f ns/schema of which models %.0f; PUT handler %.0f ns/schema vs warm parse %.0f; cache hit %.0f ns",
		parse.med/n, comp.med/n, put.med/n, warmParse.med/n, get.med/float64(max(len(keys), 1))))
}

// runtimeMetrics replays the workload for the Go runtime counters, and
// runs a short churn phase for the cache hit ratio, the reader slowdown
// and the client's unread-body reconnects.
func (l *ladder) runtimeMetrics() error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ops, err := l.replay()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.out.attempted += ops
	fops := float64(max(ops, 1))
	l.set("runtime.gc_cycles_per_kop", "count", float64(after.NumGC-before.NumGC)/fops*1000)
	l.set("runtime.gc_pause_ns_per_op", "ns", float64(after.PauseTotalNs-before.PauseTotalNs)/fops)
	l.set("runtime.alloc_bytes_per_op", "B", float64(after.TotalAlloc-before.TotalAlloc)/fops)

	inst, err := newSchemaChurn(l.opt)
	if err != nil {
		return err
	}
	x := inst.(*schemaChurn)
	defer x.close()
	seconds := 1.5
	if l.opt.smoke {
		seconds = 0.2
	}
	ph, err := x.interference(seconds)
	if err != nil {
		return err
	}
	l.out.attempted += ph.attempted
	l.out.failed += ph.failed
	l.set("cache.hit_ratio", "ratio", ph.hitRatio)
	l.set("churn.reader_slowdown", "ratio", ph.slowdown)
	l.set("http.early_closes_per_kop", "count", ph.earlyPerKop)
	l.table = append(l.table, "", fmt.Sprintf("churn phase: reader p50 %.1f us alone, %.1f us beside churn (%.2fx); cache hit ratio %.3f; %d churn ops, %.1f unread-body reconnects per 1000 requests",
		ph.alone, ph.beside, ph.slowdown, ph.hitRatio, ph.ops, ph.earlyPerKop))
	return nil
}

func (l *ladder) writeSpans() error {
	if err := os.MkdirAll(l.opt.work, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(l.opt.work, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spansFile {
		w.WriteString(s)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
