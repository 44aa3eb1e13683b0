package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"dregex/internal/ast"
	"dregex/internal/glushkov"
	"dregex/internal/parsetree"
)

// The schema-churn workload: one connection repeatedly registers a new
// schema, validates two documents against it and deletes it, while a
// second connection keeps validating against resident schemas. One churn
// op is PUT + 2 validates + DELETE; one reader op is one validate request.
//
// Churn schemas follow a fixed pattern of 100 slots, in a seeded order:
// 56 small fresh schemas with E9-shaped models, 30 repeats of a recent
// small schema (same content models, so the expression cache hits), 10
// small schemas with one nondeterministic model (registered with a
// warning), and 4 from the large tail.

const (
	churnSmall  = 56
	churnRepeat = 30
	churnNondet = 10
	churnTail   = 4
	// churnNames bounds the schema names churn cycles through, so the
	// server's per-schema instruments stay bounded too.
	churnNames = 64
	// bkLimit is the largest model, in positions, cross-checked against
	// the quadratic Brüggemann-Klein oracle.
	bkLimit = 4096
)

// tailShape is one slot of the large tail: a starred choice of that many
// positions, or a random single-occurrence expression of that many nodes.
type tailShape struct {
	choice bool
	n      int
}

// churnTailShapes are the four tail slots of each 100-op pattern: a
// starred choice of 4k positions and random expressions of 10k, 25k and
// 25k nodes. The two 25k-node ones, 2% of ops, hold the 99th percentile
// of PUT latency, so it is a median over many random expressions of one
// size. Every fifth pattern they give way to the top of the tail, a
// 64k-position choice and a 100k-node expression (churnHuge). A compiled
// tail model stays in the server's expression cache, 3–45 MB each, until
// about 4096 newer models evict it, so larger or more frequent tail
// models would hold gigabytes.
var (
	churnTailShapes = [churnTail]tailShape{{true, 4096}, {false, 10000}, {false, 25000}, {false, 25000}}
	churnHuge       = [churnTail]tailShape{2: {true, 65536}, 3: {false, 100000}}
)

// churnSmallSizes is the element-count ladder of small churn schemas.
var churnSmallSizes = []int{12, 16, 20, 24, 32, 40, 48}

type churnClass uint8

const (
	classSmall churnClass = iota
	classRepeat
	classNondet
	classTail
)

// churnOp is one generated churn op.
type churnOp struct {
	s    *schema
	src  []byte
	docs []doc
}

type schemaChurn struct {
	opt      options
	h        *harness
	resident []*schema
	docs     []doc
	admin    *conn
	reader   *conn
	writer   *conn
	classes  [100]churnClass
	shapes   [100]int  // index into churnTailShapes of each classTail slot
	recent   []churnOp // ring of recent small fresh ops, for repeats
	bk       map[string]bool
}

func newSchemaChurn(opt options) (instance, error) {
	g := newGen(opt.seed, 2)
	var resident []*schema
	for i, n := range []int{10, 16, 24, 32} {
		for _, kind := range []string{"dtd", "xsd"} {
			resident = append(resident, g.layeredSchema(fmt.Sprintf("r%02d-%s", i, kind), kind, n))
		}
	}
	x := &schemaChurn{opt: opt, resident: resident, docs: genDocs(g, resident, 200, 300, 8000), bk: map[string]bool{}}
	var slots []churnClass
	for _, c := range []struct {
		class churnClass
		n     int
	}{{classSmall, churnSmall}, {classRepeat, churnRepeat}, {classNondet, churnNondet}, {classTail, churnTail}} {
		for range c.n {
			slots = append(slots, c.class)
		}
	}
	for i, j := range g.r.Perm(100) {
		x.classes[j] = slots[i]
	}
	k := 0
	for j, c := range x.classes {
		if c == classTail {
			x.shapes[j] = k
			k++
		}
	}
	h, err := startHarness(nil)
	if err != nil {
		return nil, err
	}
	x.h, x.admin, x.reader, x.writer = h, h.newConn(), h.newConn(), h.newConn()
	if err := putAll(context.Background(), x.admin, resident); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

func (x *schemaChurn) close() {
	for _, c := range []*conn{x.admin, x.reader, x.writer} {
		c.close()
	}
	x.h.close()
}

// op generates churn op i. Generation is deterministic in (seed, i) and
// the op sequence, and runs on the writer's goroutine outside its timers.
func (x *schemaChurn) op(i int) (churnOp, error) {
	g := newGen(x.opt.seed, 1000+uint64(i))
	name := fmt.Sprintf("churn-%02d", i%churnNames)
	kind := []string{"dtd", "xsd"}[i/2%2]
	class := x.classes[i%100]
	if class == classRepeat && len(x.recent) == 0 {
		class = classSmall
	}
	var s *schema
	switch class {
	case classRepeat:
		prev := x.recent[g.r.IntN(len(x.recent))]
		s = &schema{}
		*s = *prev.s
		s.name = name
		return churnOp{s: s, src: prev.src, docs: renamed(prev.docs, name)}, nil
	case classSmall, classNondet:
		s = g.layeredSchema(name, kind, churnSmallSizes[g.r.IntN(len(churnSmallSizes))])
		if class == classNondet {
			nd := g.fresh()
			a, b, c := g.fresh(), g.fresh(), g.fresh()
			s.add(nd, g.nondetModel(a, b, c))
			s.add(a, nil)
			s.add(b, nil)
			s.add(c, nil)
			s.nondet = []string{nd}
		}
	case classTail:
		shape := churnTailShapes[x.shapes[i%100]]
		if huge := churnHuge[x.shapes[i%100]]; huge.n > 0 && i/100%5 == 4 {
			shape = huge
		}
		s = newSchema(name, "dtd", g.fresh())
		if shape.choice {
			s.add(s.root, g.wideChoice(s, shape.n))
		} else {
			s.add(s.root, g.bigSore(s, shape.n))
		}
		// The root goes first in declaration order, as in a hand-written
		// DTD; add appended it after the leaves.
		s.order = append([]string{s.root}, s.order[:len(s.order)-1]...)
	}
	if err := x.crossCheck(s); err != nil {
		return churnOp{}, err
	}
	op := churnOp{s: s, src: s.source()}
	for k := range 2 {
		op.docs = append(op.docs, g.document(s, 2000, 6, (i+k)%5 == 0 && k == 1))
	}
	if class == classSmall {
		if len(x.recent) < 32 {
			x.recent = append(x.recent, op)
		} else {
			x.recent[i%32] = op
		}
	}
	return op, nil
}

// renamed copies docs with their schema name changed.
func renamed(docs []doc, name string) []doc {
	out := make([]doc, len(docs))
	for i, d := range docs {
		d.schema = name
		out[i] = d
	}
	return out
}

// crossCheck confirms, with glushkov.CheckBK, the determinism verdict
// each model of s was built to have, for models of up to bkLimit
// positions. Verdicts are memoized by model source.
func (x *schemaChurn) crossCheck(s *schema) error {
	for _, n := range s.order {
		m := s.models[n]
		if m == nil || m.positions() > bkLimit {
			continue
		}
		want := !slices.Contains(s.nondet, n)
		src := m.dtd()
		got, ok := x.bk[src]
		if !ok {
			alpha := ast.NewAlphabet()
			e, err := ast.ParseDTD(src, alpha)
			if err != nil {
				return fmt.Errorf("oracle: parse %s: %w", src, err)
			}
			t, err := parsetree.Build(ast.Normalize(ast.DesugarPlus(ast.Normalize(e))), alpha)
			if err != nil {
				return fmt.Errorf("oracle: build %s: %w", src, err)
			}
			got = glushkov.CheckBK(t) == nil
			x.bk[src] = got
		}
		if got != want {
			return fmt.Errorf("oracle: model %s of %s: CheckBK says deterministic=%v, built as %v", src, s.name, got, want)
		}
	}
	return nil
}

// fillCache registers and deletes fresh 48-element schemas until the
// server's expression cache starts evicting.
func (x *schemaChurn) fillCache() error {
	for i := 0; ; i++ {
		g := newGen(x.opt.seed, 1<<20+uint64(i))
		s := g.layeredSchema("fill", []string{"dtd", "xsd"}[i%2], 48)
		if _, err := x.writer.PutSchema(bgCtx, s.name, s.kind, s.source()); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		if err := x.writer.DeleteSchema(bgCtx, s.name); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		if i%16 == 15 {
			st, err := x.writer.Stats(bgCtx)
			if err != nil {
				return fmt.Errorf("fill: %w", err)
			}
			if st.Cache.Evictions > 0 {
				return nil
			}
		}
	}
}

// churnStats is the writer's tally: PUT latencies, the validates of the
// churn ops, and ops run and failed (an op fails if any of its requests
// does).
type churnStats struct {
	put, val    loopStats
	ops, failed int
}

// churnLoop runs churn ops first, first+1, … on c until op last or the
// deadline, whichever comes first.
func (x *schemaChurn) churnLoop(c *conn, first, last int, deadline time.Time) (churnStats, error) {
	ctx := context.Background()
	var st churnStats
	for i := first; i < last && time.Now().Before(deadline); i++ {
		op, err := x.op(i)
		if err != nil {
			return st, err
		}
		st.ops++
		failed := false
		t0 := time.Now()
		info, err := c.PutSchema(ctx, op.s.name, op.s.kind, op.src)
		if err == nil {
			err = checkWarnings(op.s, info.Warnings)
		}
		st.put.record(t0, err == nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "churn put:", err)
			failed = true
		}
		for k := range op.docs {
			d := &op.docs[k]
			t0 := time.Now()
			resp, err := c.Validate(ctx, d.schema, d.body)
			ok := verdictOK(resp, err, d)
			st.val.record(t0, ok)
			if !ok {
				failed = true
				reportMismatch(d, resp, err)
			}
		}
		if err := c.DeleteSchema(ctx, op.s.name); err != nil {
			fmt.Fprintln(os.Stderr, "churn delete:", err)
			failed = true
		}
		if failed {
			st.failed++
		}
	}
	return st, nil
}

func (x *schemaChurn) measure(seconds float64) (*outcome, error) {
	ords := orders(x.opt.seed, 1, len(x.docs))
	warm := runLoops([]*conn{x.reader}, x.docs, ords, time.Time{})
	out := &outcome{}
	if warm.failed > 0 {
		out.attempted, out.failed = warm.attempted, warm.failed
		return out, nil
	}
	// Warm-up outside the timers: fill the server's expression cache until
	// it evicts, as a long-running server's is, then one pattern of churn
	// ops.
	if err := x.fillCache(); err != nil {
		return nil, err
	}
	if _, err := x.churnLoop(x.writer, 0, 100, time.Now().Add(time.Minute)); err != nil {
		return nil, err
	}
	first := 100
	var (
		w    churnStats
		werr error
	)
	phase := measurePhase(func(deadline time.Time) loopStats {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, werr = x.churnLoop(x.writer, first, math.MaxInt, deadline)
		}()
		rd := validateLoop(x.reader, x.docs, ords[0], deadline)
		wg.Wait()
		return rd
	}, seconds)
	if werr != nil {
		return nil, werr
	}
	rd := phase.st
	// Latency is the reader's; docs_per_s counts the writer's validates
	// too, and cpu_us_per_op divides by the ops of both connections.
	phase.report(out, rd, rd.ok+w.val.ok, rd.attempted+w.ops)
	out.attempted = rd.attempted + w.ops
	out.failed = rd.failed + w.failed
	out.set("put_p50_ms", "ms", percentile(w.put.lat, 50)/1e3)
	out.set("put_p99_ms", "ms", percentile(w.put.lat, 99)/1e3)
	return out, x.h.checkConns()
}

// interferenceResult is the churn phase of the traced run.
type interferenceResult struct {
	attempted, failed, ops int
	alone, beside          float64 // reader p50 in µs
	slowdown, hitRatio     float64
	earlyPerKop            float64
}

// interference measures the reader alone for the given seconds, then
// beside the churn writer for as long, with the server's expression-cache
// counters read around the churn.
func (x *schemaChurn) interference(seconds float64) (interferenceResult, error) {
	var res interferenceResult
	ords := orders(x.opt.seed, 1, len(x.docs))
	d := time.Duration(seconds * float64(time.Second))
	runLoops([]*conn{x.reader}, x.docs, ords, time.Time{})
	alone := validateLoop(x.reader, x.docs, ords[0], time.Now().Add(d))
	s0, err := x.admin.Stats(bgCtx)
	if err != nil {
		return res, err
	}
	early0 := x.h.earlyCloses.Load()
	var (
		w    churnStats
		werr error
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, werr = x.churnLoop(x.writer, 0, math.MaxInt, deadline)
	}()
	beside := validateLoop(x.reader, x.docs, ords[0], deadline)
	wg.Wait()
	if werr != nil {
		return res, werr
	}
	s1, err := x.admin.Stats(bgCtx)
	if err != nil {
		return res, err
	}
	hits, misses := float64(s1.Cache.Hits-s0.Cache.Hits), float64(s1.Cache.Misses-s0.Cache.Misses)
	res.attempted = alone.attempted + beside.attempted + w.ops
	res.failed = alone.failed + beside.failed + w.failed
	res.ops = w.ops
	res.alone, res.beside = percentile(alone.lat, 50), percentile(beside.lat, 50)
	res.slowdown = res.beside / res.alone
	res.hitRatio = hits / max(hits+misses, 1)
	requests := float64(beside.attempted + w.put.attempted + w.val.attempted + w.ops)
	res.earlyPerKop = float64(x.h.earlyCloses.Load()-early0) / requests * 1000
	return res, x.h.checkConns()
}

func (x *schemaChurn) trace(seconds float64) (*outcome, error) {
	return runLadder(&ladder{opt: x.opt, schemas: x.resident, docs: x.docs, replay: func() (int, error) {
		r, err := x.interference(seconds / 4)
		return r.attempted, err
	}})
}
