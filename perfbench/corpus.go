package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dregex"
	"dregex/internal/dtd"
	"dregex/internal/xsd"
)

// The corpus-validate workload: the xmlvalid and xsdvalid commands run
// with -workers 2 -json over a generated on-disk corpus of large
// documents. The DTD half mixes a (t1 | … | t2000)* model (k-ORE tier), a
// starred block of 3-occurrence symbols (path-decomposition tier) and a
// recursive section model nested 40 deep (dense-table tier); the XSD half
// uses {m,n} counters (numeric tier). One op is one document; one round
// runs both commands once over the whole corpus.

const (
	corpusWorkers = 2
	corpusDepth   = 40
	// corpusLoadRounds is how many times the schema-load probe loads both
	// corpus schemas.
	corpusLoadRounds = 150
	corpusWindow     = 5 * time.Second
	// loadWindow is the window of the load probe's 99th percentile, about
	// 25 loads.
	loadWindow = 500 * time.Millisecond
)

// corpusDTDDocs and corpusXSDDocs are the document-size ladders in bytes.
var (
	corpusDTDDocs = []int{150 << 10, 300 << 10, 600 << 10, 1200 << 10}
	corpusXSDDocs = []int{200 << 10, 500 << 10, 1000 << 10, 2000 << 10}
)

// genCorpus builds the corpus schemas and documents. The DTD half has
// three roots, each with every size of the ladder; one DTD document and
// one XSD document are invalid.
func genCorpus(seed uint64, smoke bool) (d, x *schema, ddocs, xdocs []doc) {
	g := newGen(seed, 3)
	scale := 1
	if smoke {
		scale = 64
	}
	d = newSchema("corpus-dtd", "dtd", "")
	wide, block, deep := g.fresh(), g.fresh(), g.fresh()
	d.add(wide, g.wideChoice(d, 2000))
	d.add(block, g.blockModel(d, 400))
	sec, title, para, list, item := g.fresh(), g.fresh(), g.fresh(), g.fresh(), g.fresh()
	d.add(deep, unary(mPlus, sym(sec)))
	d.add(sec, seq(sym(title), unary(mStar, choice(sym(para), sym(list), sym(sec)))))
	d.add(list, unary(mPlus, sym(item)))
	for _, leaf := range []string{title, para, item} {
		d.add(leaf, nil)
	}
	d.recursive = sec
	roots := []string{wide, block, deep}
	bad := g.r.IntN(len(roots) * len(corpusDTDDocs))
	for i, r := range roots {
		for j, size := range corpusDTDDocs {
			d.root = r
			ddocs = append(ddocs, g.document(d, size/scale, corpusDepth, i*len(corpusDTDDocs)+j == bad))
		}
	}
	d.root = wide

	x = newSchema("corpus-xsd", "xsd", g.fresh())
	rec, id, a, b, c, e := g.fresh(), g.fresh(), g.fresh(), g.fresh(), g.fresh(), g.fresh()
	x.add(x.root, count(sym(rec), 1, 1000000))
	x.add(rec, seq(sym(id), count(sym(a), 2, 4), count(choice(sym(b), sym(c)), 1, 6), unary(mOpt, sym(e))))
	for _, leaf := range []string{id, a, b, c, e} {
		x.add(leaf, nil)
	}
	bad = g.r.IntN(len(corpusXSDDocs))
	for j, size := range corpusXSDDocs {
		xdocs = append(xdocs, g.document(x, size/scale, corpusDepth, j == bad))
	}
	return d, x, ddocs, xdocs
}

// corpusHalf is one command's share of the corpus.
type corpusHalf struct {
	cmd, flag string
	schema    *schema
	schemaSrc []byte
	schemaAt  string
	dir       string
	docs      []doc
	want      map[string]bool // document path → expected verdict
}

type corpusValidate struct {
	opt    options
	halves [2]*corpusHalf
}

func newCorpusValidate(opt options) (instance, error) {
	for _, cmd := range []string{"xmlvalid", "xsdvalid"} {
		if _, err := os.Stat(filepath.Join(opt.bin, cmd)); err != nil {
			return nil, fmt.Errorf("the %s binary must be built before set-up: %w", cmd, err)
		}
	}
	d, x, ddocs, xdocs := genCorpus(opt.seed, opt.smoke)
	if err := os.RemoveAll(opt.work); err != nil {
		return nil, err
	}
	cv := &corpusValidate{opt: opt}
	for i, h := range []*corpusHalf{
		{cmd: "xmlvalid", flag: "-dtd", schema: d, docs: ddocs},
		{cmd: "xsdvalid", flag: "-xsd", schema: x, docs: xdocs},
	} {
		h.dir = filepath.Join(opt.work, h.schema.kind)
		if err := os.MkdirAll(h.dir, 0o755); err != nil {
			return nil, err
		}
		h.schemaSrc = h.schema.source()
		h.schemaAt = filepath.Join(opt.work, "corpus."+h.schema.kind)
		if err := os.WriteFile(h.schemaAt, h.schemaSrc, 0o644); err != nil {
			return nil, err
		}
		h.want = map[string]bool{}
		for j, dc := range h.docs {
			p := filepath.Join(h.dir, fmt.Sprintf("doc%02d.xml", j))
			if err := os.WriteFile(p, dc.body, 0o644); err != nil {
				return nil, err
			}
			h.want[p] = dc.valid
		}
		cv.halves[i] = h
	}
	return cv, nil
}

func (cv *corpusValidate) close() {}

// cliRun is one command invocation over its half of the corpus.
type cliRun struct {
	wall, cpu    time.Duration
	maxRSSMB     float64
	docs, failed int
}

// runCLI runs one command over its half and compares its -json report
// with the expected verdicts document by document.
func (cv *corpusValidate) runCLI(h *corpusHalf) (cliRun, error) {
	cmd := exec.Command(filepath.Join(cv.opt.bin, h.cmd), h.flag, h.schemaAt, "-workers", fmt.Sprint(corpusWorkers), "-json", h.dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	run := cliRun{wall: time.Since(t0)}
	// Exit status 1 means some document is invalid, which the corpus
	// always has; anything else is a failure of the command.
	if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
		return run, fmt.Errorf("%s: %v: %s", h.cmd, err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSMB = float64(ru.Maxrss) / 1024
	}
	run.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	var reports []struct {
		Path  string `json:"path"`
		Valid bool   `json:"valid"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &reports); err != nil {
		return run, fmt.Errorf("%s: reading its -json report: %w", h.cmd, err)
	}
	seen := map[string]bool{}
	for _, r := range reports {
		want, ok := h.want[r.Path]
		run.docs++
		if !ok || seen[r.Path] || r.Valid != want {
			run.failed++
			fmt.Fprintf(os.Stderr, "%s: %s valid=%v, want %v (known %v)\n", h.cmd, r.Path, r.Valid, want, ok)
		}
		seen[r.Path] = true
	}
	if missing := len(h.want) - len(seen); missing > 0 {
		run.docs += missing
		run.failed += missing
		fmt.Fprintf(os.Stderr, "%s: %d documents missing from the report\n", h.cmd, missing)
	}
	return run, nil
}

// round runs both commands once over the whole corpus.
func (cv *corpusValidate) round() (cliRun, error) {
	var total cliRun
	for _, h := range cv.halves {
		r, err := cv.runCLI(h)
		if err != nil {
			return total, err
		}
		total.wall += r.wall
		total.cpu += r.cpu
		total.maxRSSMB = max(total.maxRSSMB, r.maxRSSMB)
		total.docs += r.docs
		total.failed += r.failed
	}
	return total, nil
}

func (cv *corpusValidate) measure(seconds float64) (*outcome, error) {
	out := &outcome{}
	// Warm-up: one discarded round (page cache, binaries).
	if warm, err := cv.round(); err != nil || warm.failed > 0 {
		out.attempted, out.failed = warm.docs, warm.failed
		return out, err
	}
	// Per-round figures; the metrics are their medians, except the
	// latency percentiles, taken over the round times (the 99th per 5 s
	// window, as windowedP99 takes it). A round's RSS is the larger peak
	// of its two commands.
	var lat, rate, cpu, rss []float64
	var at []int64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for len(lat) == 0 || time.Now().Before(deadline) {
		r, err := cv.round()
		if err != nil {
			return nil, err
		}
		lat = append(lat, float64(r.wall.Nanoseconds())/1e3)
		at = append(at, time.Now().UnixNano())
		rate = append(rate, float64(r.docs-r.failed)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu.Microseconds())/float64(max(r.docs, 1)))
		rss = append(rss, r.maxRSSMB)
		out.attempted += r.docs
		out.failed += r.failed
	}
	out.set("docs_per_s", "1/s", median(rate))
	out.set("latency_p50_us", "us", percentile(lat, 50))
	out.set("latency_p99_us", "us", windowedP99(lat, at, t0, corpusWindow))
	out.set("cpu_us_per_op", "us", median(cpu))
	out.set("peak_rss_mb", "MiB", median(rss))

	t0 = time.Now()
	load := cv.loadProbe()
	out.attempted += load.attempted
	out.failed += load.failed
	out.set("put_p50_ms", "ms", percentile(load.lat, 50)/1e3)
	out.set("put_p99_ms", "ms", windowedP99(load.lat, load.at, t0, loadWindow)/1e3)
	return out, nil
}

// loadProbe times the commands' schema-load step in process: both corpus
// schemas parsed and compiled through a fresh expression cache, as each
// command does at start-up. Each load starts after a runtime.GC, as a
// command starts with an empty heap. One op loads both. Latencies are in
// µs.
func (cv *corpusValidate) loadProbe() loopStats {
	var st loopStats
	dsrc, xsrc := string(cv.halves[0].schemaSrc), cv.halves[1].schemaSrc
	rounds := corpusLoadRounds
	if cv.opt.smoke {
		rounds = 5
	}
	for range rounds {
		runtime.GC()
		t0 := time.Now()
		cache := dregex.NewCache(4096)
		_, derr := dtd.ParseWithCache(dsrc, cache)
		_, xerr := xsd.ParseWithCache(xsrc, cache)
		st.record(t0, derr == nil && xerr == nil)
		if derr != nil || xerr != nil {
			fmt.Fprintln(os.Stderr, "schema load:", derr, xerr)
		}
	}
	return st
}

func (cv *corpusValidate) trace(seconds float64) (*outcome, error) {
	var schemas []*schema
	var docs []doc
	for _, h := range cv.halves {
		schemas = append(schemas, h.schema)
		docs = append(docs, h.docs...)
	}
	return runLadder(&ladder{opt: cv.opt, schemas: schemas, docs: docs, replay: cv.replayInProcess})
}

// replayInProcess runs the commands' validators in process over the
// on-disk corpus, -workers 2 as the commands do, for the Go runtime
// metrics the child processes cannot report.
func (cv *corpusValidate) replayInProcess() (int, error) {
	n := 0
	for _, h := range cv.halves {
		var paths []string
		for p := range h.want {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		var valid []bool
		if h.schema.kind == "dtd" {
			d, err := dtd.ParseWithCache(string(h.schemaSrc), dregex.NewCache(4096))
			if err != nil {
				return n, err
			}
			for _, r := range dtd.NewValidator(d, corpusWorkers).ValidateFiles(paths) {
				valid = append(valid, r.Valid())
			}
		} else {
			x, err := xsd.ParseWithCache(h.schemaSrc, dregex.NewCache(4096))
			if err != nil {
				return n, err
			}
			for _, r := range xsd.NewValidator(x, corpusWorkers).ValidateFiles(paths) {
				valid = append(valid, r.Valid())
			}
		}
		for i, p := range paths {
			n++
			if valid[i] != h.want[p] {
				return n, fmt.Errorf("in-process %s: %s valid=%v, want %v", h.cmd, p, valid[i], h.want[p])
			}
		}
	}
	return n, nil
}
