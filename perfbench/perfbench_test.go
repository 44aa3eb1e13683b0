package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// These tests make no timing assertions: they check that inputs are a
// pure function of the seed, that the statistics helpers are exact, that
// the reference matcher agrees with how inputs are built, and that every
// workload and the traced ladder run end to end (in smoke mode) and emit
// every metric BENCHMARK.json names.

func sameDocs(t *testing.T, what string, a, b []doc) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d documents vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].schema != b[i].schema || a[i].valid != b[i].valid || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("%s: document %d differs between two generations from one seed", what, i)
		}
	}
}

func sameSchemas(t *testing.T, what string, a, b []*schema) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d schemas vs %d", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].source(), b[i].source()) {
			t.Fatalf("%s: schema %s differs between two generations from one seed", what, a[i].name)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	s1, d1 := genHTTPInputs(7)
	s2, d2 := genHTTPInputs(7)
	sameSchemas(t, "http-validate", s1, s2)
	sameDocs(t, "http-validate", d1, d2)
	s3, d3 := genHTTPInputs(8)
	if bytes.Equal(s1[0].source(), s3[0].source()) || bytes.Equal(d1[0].body, d3[0].body) {
		t.Error("http-validate: seeds 7 and 8 generate the same inputs")
	}

	cd1, cx1, cdd1, cxd1 := genCorpus(7, true)
	cd2, cx2, cdd2, cxd2 := genCorpus(7, true)
	sameSchemas(t, "corpus-validate", []*schema{cd1, cx1}, []*schema{cd2, cx2})
	sameDocs(t, "corpus-validate", append(cdd1, cxd1...), append(cdd2, cxd2...))

	// Churn ops, tail included, replay identically in the same order.
	var ops [2][]churnOp
	for k := range ops {
		inst, err := newSchemaChurn(options{seed: 7, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		x := inst.(*schemaChurn)
		for i := 0; i < 100; i++ {
			op, err := x.op(i)
			if err != nil {
				t.Fatal(err)
			}
			ops[k] = append(ops[k], op)
		}
		x.close()
	}
	for i := range ops[0] {
		if !bytes.Equal(ops[0][i].src, ops[1][i].src) {
			t.Fatalf("schema-churn: op %d schema differs between two generations from one seed", i)
		}
		sameDocs(t, "schema-churn", ops[0][i].docs, ops[1][i].docs)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0, 1}, {ten, 50, 5.5}, {ten, 99, 9.91}, {ten, 100, 10},
		{[]float64{4}, 99, 4},
		{[]float64{1, 2, 3, 4}, 25, 1.75},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{ten, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2, 8}, 0.5, 5, 9.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(m-c.m) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	// The middle half of 1..8 is 3, 4, 5, 6.
	if got := interquartileMean([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Errorf("interquartileMean = %v, want 4.5", got)
	}
	if got := interquartileMean([]float64{1, 5}); got != 3 {
		t.Errorf("interquartileMean of two = %v, want 3", got)
	}
}

func TestReferenceMatcher(t *testing.T) {
	// (a, (b | c)*, d?){2,3}
	m := count(seq(sym("a"), unary(mStar, choice(sym("b"), sym("c"))), unary(mOpt, sym("d"))), 2, 3)
	for _, c := range []struct {
		word string
		want bool
	}{
		{"a a", true}, {"a b c d a", true}, {"a a a", true}, {"a", false},
		{"a a a a", false}, {"a d d a", false}, {"b a a", false}, {"a c c c a d", true},
	} {
		if got := accepts(m, splitWord(c.word)); got != c.want {
			t.Errorf("accepts(%s, %q) = %v, want %v", m.dtd(), c.word, got, c.want)
		}
	}
	// Every walk of a model is accepted; the walker and the oracle are
	// independent code over the same model tree.
	g := newGen(3, 3)
	s := g.layeredSchema("t", "dtd", 30)
	for _, n := range s.order {
		if mm := s.models[n]; mm != nil {
			for range 20 {
				if w := g.walk(nil, mm, 3); !accepts(mm, w) {
					t.Fatalf("generated word %v of %s rejected", w, mm.dtd())
				}
			}
		}
	}
}

func splitWord(s string) []string {
	var out []string
	for _, f := range bytes.Fields([]byte(s)) {
		out = append(out, string(f))
	}
	return out
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (e2e, layers []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

// TestSmoke runs every workload's measured phase and traced ladder for a
// fraction of a second and checks that each emits every metric
// BENCHMARK.json names, with no wrong verdict.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the xmlvalid and xsdvalid commands")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "dregex/cmd/xmlvalid", "dregex/cmd/xsdvalid")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the commands: %v\n%s", err, out)
	}
	e2e, layers := benchmarkJSON(t)
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			inst, err := mk(options{seed: 5, bin: bin, work: t.TempDir(), smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			out, err := inst.measure(0.3)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Fatalf("measure: %d of %d ops failed", out.failed, out.attempted)
			}
			for _, m := range e2e {
				if _, ok := out.metrics[m]; !ok && m != "setup_s" && m != "ok_ratio" {
					t.Errorf("measure emits no %s", m)
				}
			}
			tr, err := inst.trace(0.3)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed > 0 {
				t.Fatalf("trace: %d of %d checks failed", tr.failed, tr.attempted)
			}
			for _, m := range layers {
				if _, ok := tr.metrics[m]; !ok {
					t.Errorf("trace emits no %s", m)
				}
			}
			if len(tr.metrics) != len(layers) {
				t.Errorf("trace emits %d metrics, BENCHMARK.json declares %d", len(tr.metrics), len(layers))
			}
		})
	}
}
