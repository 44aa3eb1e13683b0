package ast_test

import (
	"math/rand"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
)

// plusDepth is the deepest nesting of e{1,∞} iterations in e. Each level
// doubles the desugared size, so the fuzz target skips deep nests.
func plusDepth(e *ast.Node) int {
	if e == nil {
		return 0
	}
	d := max(plusDepth(e.L), plusDepth(e.R))
	if e.Kind == ast.KIter && e.Min == 1 && e.Max == ast.Unbounded {
		d++
	}
	return d
}

// checkCanonical asserts that the one-pass Canonical equals the
// three-pass composition it replaces, and leaves its input alone.
func checkCanonical(t *testing.T, e *ast.Node, alpha *ast.Alphabet) {
	t.Helper()
	before := ast.Clone(e)
	want := ast.Normalize(ast.DesugarPlus(ast.Normalize(e)))
	got := ast.Canonical(e)
	if !ast.Equal(got, want) {
		t.Fatalf("Canonical(%s) = %s, want %s",
			ast.StringDTD(e, alpha), ast.StringDTD(got, alpha), ast.StringDTD(want, alpha))
	}
	if !ast.Equal(e, before) {
		t.Fatalf("Canonical mutated its input %s", ast.StringDTD(before, alpha))
	}
}

// FuzzCanonical parses each input as a DTD and as a math-notation
// content model and checks Canonical against the composition.
func FuzzCanonical(f *testing.F) {
	for _, s := range []string{
		"(title, author+, (section | appendix)*)",
		"((a+)+, b?)*",
		"(a?, b?)+",
		"(a{2,3} | b){0,4}, c{1,}",
		"((a*)*)?",
		"(a?){1,1}, (b?){2,}, (c*){0,1}",
		"(((a0?, a1?)?, a2?)?, a3?)?",
		"(ab+b(b?)a)*",
		"(a{0,}b{1,}){0,3}",
		"((a?b?){1,})*c",
		"a{1,1}{0,1}{2,5}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		for _, parse := range []func(string, *ast.Alphabet) (*ast.Node, error){ast.ParseDTD, ast.ParseMath} {
			alpha := ast.NewAlphabet()
			e, err := parse(src, alpha)
			if err != nil || plusDepth(e) > 10 {
				continue
			}
			checkCanonical(t, e, alpha)
		}
	})
}

// TestCanonicalRandom runs the Canonical check on seeded random
// expressions with numeric bounds, nullable bodies and nested e+.
func TestCanonicalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		alpha := ast.NewAlphabet()
		cfg := wordgen.ExprConfig{Symbols: 1 + trial%4, MaxNodes: 5 + trial%60, AllowIter: true, IterMax: 3}
		e := wordgen.RandomExpr(r, alpha, cfg)
		if plusDepth(e) > 10 {
			continue
		}
		checkCanonical(t, e, alpha)
	}
}
