package dregex

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
)

// nestedOptDTD renders ((((a0?, a1?)?, a2?)?, …)? with depth optional
// names: every ? wraps a nullable concatenation, the shape on which a
// normalizer that re-derives nullability per ? goes quadratic.
func nestedOptDTD(depth int) string {
	var b strings.Builder
	b.WriteString(strings.Repeat("(", depth-1))
	b.WriteString("a0?")
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&b, ", a%d?)?", i)
	}
	return b.String()
}

// soreDTD renders a random single-occurrence expression of about nodes
// AST nodes in DTD syntax (every name used once, so it is deterministic).
func soreDTD(seed int64, nodes int) string {
	alpha := ast.NewAlphabet()
	e := wordgen.RandomDeterministicExpr(rand.New(rand.NewSource(seed)), alpha, nodes/2, nodes, false)
	return ast.StringDTD(e, alpha)
}

// minCompileNsPerNode compiles src runs times and returns the fastest
// run's time per parse-tree node. Each run starts from a collected heap
// with the collector off, so runs of different sizes compare compile work
// rather than how many collections their allocation volume happens to
// trigger.
func minCompileNsPerNode(t *testing.T, src string, runs int) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := 0.0
	for i := 0; i < runs; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := Compile(src, DTD)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.IsDeterministic() {
			t.Fatalf("nested optional chain reported nondeterministic (%s)", e.Rule())
		}
		ns := float64(d.Nanoseconds()) / float64(e.Stats().Size)
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestCompileDepthLinear pins the compile of deeply nested optional
// chains to linear time: nanoseconds per node at depth 16k stay within 3×
// of depth 2k (fastest of 5 runs each).
func TestCompileDepthLinear(t *testing.T) {
	small := minCompileNsPerNode(t, nestedOptDTD(2000), 5)
	large := minCompileNsPerNode(t, nestedOptDTD(16000), 5)
	t.Logf("ns/node: depth 2k %.0f, depth 16k %.0f (%.1f×)", small, large, large/small)
	if large > 3*small {
		t.Errorf("compile ns/node at depth 16k is %.1f× that at depth 2k (%.0f vs %.0f), want ≤ 3×",
			large/small, large, small)
	}
}

// TestCompileAllocsFlat pins the compile front end's allocation count to
// (near) constant in |e|: a 64k-node expression allocates at most twice
// what a 1k-node one does.
func TestCompileAllocsFlat(t *testing.T) {
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Compile(src, DTD); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(soreDTD(1, 1000)), allocs(soreDTD(1, 64000))
	t.Logf("Compile allocs: 1k nodes %.0f, 64k nodes %.0f", small, large)
	if large > 2*small {
		t.Errorf("Compile allocates %.0f times at 64k nodes, %.0f at 1k: want ≤ 2×", large, small)
	}
}

// BenchmarkCompileSORE compiles a 25k-node single-occurrence DTD model,
// the size of the large content models the schema-churn workload PUTs.
func BenchmarkCompileSORE(b *testing.B) {
	src := soreDTD(1, 25000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, DTD); err != nil {
			b.Fatal(err)
		}
	}
}
