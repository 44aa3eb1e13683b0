// Package wordgen generates workloads: random regular expressions from the
// families discussed in the paper (arbitrary, deterministic, k-occurrence,
// star-free, bounded plus-depth, mixed-content, CHARE/simple), and random
// words drawn from or near the language of an expression. It supplies both
// the fuzzing corpora for the test suite and the inputs for the E1–E9
// benchmark experiments (bench_test.go and cmd/benchtab; see the README
// section "XML/DTD tooling").
package wordgen

import (
	"fmt"
	"math/rand"
	"strings"

	"dregex/internal/ast"
)

// ExprConfig controls RandomExpr.
type ExprConfig struct {
	Symbols   int  // number of distinct symbols to draw from (≥1)
	MaxNodes  int  // approximate node budget (≥1)
	AllowIter bool // permit numeric occurrence indicators e{i,j}
	IterMax   int  // largest finite bound to generate (default 4)
}

// SymbolName returns the generated name of the i-th symbol: a, b, …, z,
// s26, s27, … — single letters first so small alphabets render in the
// paper's math notation.
func SymbolName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return fmt.Sprintf("s%d", i)
}

// RandomExpr generates a random expression with roughly cfg.MaxNodes nodes.
// The result is not normalized and usually nondeterministic; use
// RandomDeterministicExpr for deterministic corpora.
func RandomExpr(r *rand.Rand, alpha *ast.Alphabet, cfg ExprConfig) *ast.Node {
	if cfg.Symbols < 1 {
		cfg.Symbols = 1
	}
	if cfg.MaxNodes < 1 {
		cfg.MaxNodes = 1
	}
	if cfg.IterMax < 2 {
		cfg.IterMax = 4
	}
	budget := cfg.MaxNodes
	var gen func(depth int) *ast.Node
	gen = func(depth int) *ast.Node {
		budget--
		if budget <= 0 || depth > 40 {
			return ast.Sym(alpha.Intern(SymbolName(r.Intn(cfg.Symbols))))
		}
		roll := r.Intn(100)
		switch {
		case roll < 30:
			return ast.Sym(alpha.Intern(SymbolName(r.Intn(cfg.Symbols))))
		case roll < 55:
			return ast.Cat(gen(depth+1), gen(depth+1))
		case roll < 75:
			return ast.Union(gen(depth+1), gen(depth+1))
		case roll < 85:
			return ast.Opt(gen(depth + 1))
		case roll < 95 || !cfg.AllowIter:
			return ast.Star(gen(depth + 1))
		default:
			min := r.Intn(3)
			max := min + 1 + r.Intn(cfg.IterMax-1)
			if r.Intn(4) == 0 {
				max = ast.Unbounded
			}
			return ast.Iter(gen(depth+1), min, max)
		}
	}
	return gen(0)
}

// RandomDeterministicExpr generates a random expression that is guaranteed
// deterministic by construction: it first builds a random 1-ORE (each
// symbol used at most once — 1-OREs are always deterministic, §1 of the
// paper) over a random subset of the alphabet. With duplication enabled a
// limited number of symbols may be repeated in positions that keep the
// expression deterministic (separated by a fresh non-nullable separator on
// a concatenation spine).
func RandomDeterministicExpr(r *rand.Rand, alpha *ast.Alphabet, symbols, maxNodes int, duplicate bool) *ast.Node {
	if symbols < 1 {
		symbols = 1
	}
	perm := r.Perm(symbols)
	next := 0
	fresh := func() *ast.Node {
		if next >= len(perm) {
			return nil
		}
		s := alpha.Intern(SymbolName(perm[next]))
		next++
		return ast.Sym(s)
	}
	budget := maxNodes
	var gen func(depth int) *ast.Node
	gen = func(depth int) *ast.Node {
		budget--
		if budget <= 0 || depth > 30 || next >= len(perm)-1 {
			return fresh()
		}
		switch r.Intn(10) {
		case 0, 1, 2:
			return fresh()
		case 3, 4:
			l, rr := gen(depth+1), gen(depth+1)
			if l == nil || rr == nil {
				return first(l, rr)
			}
			return ast.Cat(l, rr)
		case 5, 6:
			l, rr := gen(depth+1), gen(depth+1)
			if l == nil || rr == nil {
				return first(l, rr)
			}
			return ast.Union(l, rr)
		case 7:
			l := gen(depth + 1)
			if l == nil {
				return nil
			}
			return ast.Opt(l)
		default:
			l := gen(depth + 1)
			if l == nil {
				return nil
			}
			return ast.Star(l)
		}
	}
	e := gen(0)
	if e == nil {
		e = ast.Sym(alpha.Intern(SymbolName(perm[0])))
	}
	// The recursion alone is near-critical and often stops early; keep
	// appending fresh-separated chunks until the node budget is spent, so
	// requested sizes are actually reached. A fresh separator keeps the
	// concatenation deterministic (the Glushkov automata are joined
	// through a single-occurrence symbol).
	for budget > 4 && next < len(perm)-2 {
		sep := fresh()
		chunk := gen(0)
		if sep == nil || chunk == nil {
			break
		}
		e = ast.CatAll(e, sep, chunk)
	}
	if duplicate {
		e2 := RandomDeterministicExpr(r, alpha, symbols, maxNodes/2, false)
		if sep := fresh(); sep != nil {
			e = ast.CatAll(e, sep, e2)
		}
	}
	return ast.Normalize(e)
}

func first(a, b *ast.Node) *ast.Node {
	if a != nil {
		return a
	}
	return b
}

// MixedContent returns the paper's running example E = (a1 + a2 + … + am)*
// (§1: "the quadratic behavior of building the Glushkov automaton is
// experienced even for very simple expressions such as E"). The union is
// built as a balanced tree so the parse tree stays shallow.
func MixedContent(alpha *ast.Alphabet, m int) *ast.Node {
	return ast.Star(balancedUnion(alpha, 0, m))
}

func balancedUnion(alpha *ast.Alphabet, lo, hi int) *ast.Node {
	if hi-lo == 1 {
		return ast.Sym(alpha.Intern(SymbolName(lo)))
	}
	mid := (lo + hi) / 2
	return ast.Union(balancedUnion(alpha, lo, mid), balancedUnion(alpha, mid, hi))
}

// KOccurrence builds a deterministic expression in which each of m symbols
// occurs exactly k times: a concatenation of k blocks, where block i is
// (a1 b_i1? a2 b_i2? … )-style sequence over the shared symbols separated
// by per-block fresh separators, keeping Glushkov determinism. The result
// exercises the k-ORE matcher with the advertised parameter.
func KOccurrence(alpha *ast.Alphabet, m, k int) *ast.Node {
	if m < 1 || k < 1 {
		panic("wordgen.KOccurrence: m and k must be positive")
	}
	blocks := make([]*ast.Node, 0, k)
	for b := 0; b < k; b++ {
		seq := make([]*ast.Node, 0, m+1)
		// Per-block separator guarantees determinism across blocks.
		seq = append(seq, ast.Sym(alpha.Intern(fmt.Sprintf("sep%d", b))))
		for i := 0; i < m; i++ {
			seq = append(seq, ast.Opt(ast.Sym(alpha.Intern(SymbolName(i)))))
		}
		blocks = append(blocks, ast.CatAll(seq...))
	}
	return ast.CatAll(blocks...)
}

// DeepAlternation builds a deterministic expression whose +/⊙ alternation
// depth grows linearly with d (≈ 2d−1) and whose size is Θ(width^d)
// positions for width > 1 — use small widths for deep towers:
//
//	d=1:  a1 a2 … aw
//	d+1:  (E_d + f1) g1 (E_d' + f2) g2 …
//
// Fresh symbols keep it deterministic; it drives experiment E4.
func DeepAlternation(alpha *ast.Alphabet, depth, width int) *ast.Node {
	ctr := 0
	fresh := func() *ast.Node {
		s := alpha.Intern(fmt.Sprintf("x%d", ctr))
		ctr++
		return ast.Sym(s)
	}
	var build func(d int) *ast.Node
	build = func(d int) *ast.Node {
		if d <= 1 {
			parts := make([]*ast.Node, 0, width)
			for i := 0; i < width; i++ {
				parts = append(parts, fresh())
			}
			return ast.CatAll(parts...)
		}
		parts := make([]*ast.Node, 0, 2*width)
		for i := 0; i < width; i++ {
			parts = append(parts, ast.Union(build(d-1), fresh()))
			parts = append(parts, fresh())
		}
		return ast.CatAll(parts...)
	}
	return build(depth)
}

// CHARE builds a random chain regular expression (Bex et al.; §1 related
// work): a sequence of factors (a1+…+an) each optionally extended with *,
// ? or +, using each symbol at most once — hence deterministic.
func CHARE(r *rand.Rand, alpha *ast.Alphabet, factors, maxFactorWidth int) *ast.Node {
	ctr := 0
	fresh := func() *ast.Node {
		s := alpha.Intern(fmt.Sprintf("c%d", ctr))
		ctr++
		return ast.Sym(s)
	}
	seq := make([]*ast.Node, 0, factors)
	for i := 0; i < factors; i++ {
		w := 1 + r.Intn(maxFactorWidth)
		alts := make([]*ast.Node, 0, w)
		for j := 0; j < w; j++ {
			alts = append(alts, fresh())
		}
		f := ast.UnionAll(alts...)
		switch r.Intn(4) {
		case 0:
			f = ast.Star(f)
		case 1:
			f = ast.Opt(f)
		case 2:
			f = ast.Iter(f, 1, ast.Unbounded) // the DTD "+" postfix
		}
		seq = append(seq, f)
	}
	return ast.CatAll(seq...)
}

// StarFree builds a random deterministic star-free expression (experiment
// E6): a 1-ORE built from cat/union/opt only.
func StarFree(r *rand.Rand, alpha *ast.Alphabet, symbols, maxNodes int) *ast.Node {
	perm := r.Perm(symbols)
	next := 0
	fresh := func() *ast.Node {
		if next >= len(perm) {
			return nil
		}
		s := alpha.Intern(SymbolName(perm[next]))
		next++
		return ast.Sym(s)
	}
	budget := maxNodes
	var gen func(depth int) *ast.Node
	gen = func(depth int) *ast.Node {
		budget--
		if budget <= 0 || depth > 30 {
			return fresh()
		}
		switch r.Intn(8) {
		case 0, 1:
			return fresh()
		case 2, 3, 4:
			l, rr := gen(depth+1), gen(depth+1)
			if l == nil || rr == nil {
				return first(l, rr)
			}
			return ast.Cat(l, rr)
		case 5, 6:
			l, rr := gen(depth+1), gen(depth+1)
			if l == nil || rr == nil {
				return first(l, rr)
			}
			return ast.Union(l, rr)
		default:
			l := gen(depth + 1)
			if l == nil {
				return nil
			}
			return ast.Opt(l)
		}
	}
	e := gen(0)
	if e == nil {
		e = ast.Sym(alpha.Intern(SymbolName(perm[0])))
	}
	return ast.Normalize(e)
}

// OptChainDTD renders the DTD source of a star-free chain of n distinct
// optional names — (a0?, a1?, …) — with positions = sigma = n. The shape
// sizes precisely: a dense transition table for it needs exactly (n+2)²
// entries, which lets tests place expressions on either side of the
// table-budget cutoff.
func OptChainDTD(n int) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "a%d?", i)
	}
	b.WriteByte(')')
	return b.String()
}
