package dregex

import (
	"math/rand"
	"slices"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
)

// TestStatsFromTree checks the tree-derived Stats against the AST metrics
// of the canonical expression on seeded random expressions, e+ included.
func TestStatsFromTree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		alpha := ast.NewAlphabet()
		cfg := wordgen.ExprConfig{Symbols: 1 + trial%6, MaxNodes: 1 + trial%80, AllowIter: true}
		src := ast.StringDTD(plusOnly(wordgen.RandomExpr(r, alpha, cfg)), alpha)
		e, err := Compile(src, DTD)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		root, _, err := parseSource(src, DTD)
		if err != nil {
			t.Fatal(err)
		}
		root = ast.Canonical(root)
		st := e.Stats()
		if want := ast.MaxOccurrence(root); st.K != want {
			t.Fatalf("%q: K = %d, want %d", src, st.K, want)
		}
		if want := ast.AlternationDepth(root); st.AlternationDepth != want {
			t.Fatalf("%q: AlternationDepth = %d, want %d", src, st.AlternationDepth, want)
		}
		if want := int(slices.Max(e.tree.Depth)); st.Depth != want {
			t.Fatalf("%q: Depth = %d, want %d", src, st.Depth, want)
		}
		if want := !ast.HasStar(root); st.StarFree != want {
			t.Fatalf("%q: StarFree = %v, want %v", src, st.StarFree, want)
		}
	}
}
