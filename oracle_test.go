package dregex

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
)

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/nondet_oracle.tsv from the current compiler")

const oracleFile = "testdata/nondet_oracle.tsv"

// oracleSources returns the seeded expression corpus of the
// nondeterminism oracle: the determinism package's BK-fuzz generator in
// math notation, the same generator with every numeric bound turned into
// DTD's e+, and counted expressions for the numeric pipeline. Each entry
// is (kind, source); kind is "math", "dtd" or "num".
func oracleSources() [][2]string {
	var out [][2]string
	r := rand.New(rand.NewSource(101))
	configs := []wordgen.ExprConfig{
		{Symbols: 1, MaxNodes: 10},
		{Symbols: 2, MaxNodes: 15},
		{Symbols: 2, MaxNodes: 40},
		{Symbols: 3, MaxNodes: 30},
		{Symbols: 4, MaxNodes: 60},
		{Symbols: 6, MaxNodes: 120},
	}
	for _, cfg := range configs {
		for trial := 0; trial < 700; trial++ {
			alpha := ast.NewAlphabet()
			e := wordgen.RandomExpr(r, alpha, cfg)
			out = append(out, [2]string{"math", ast.StringMath(e, alpha)})
		}
	}
	// Larger alphabets make P1 rarer, so the later rules fire more often.
	r = rand.New(rand.NewSource(104))
	for trial := 0; trial < 1500; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{Symbols: 8 + trial%5, MaxNodes: 30 + trial%40})
		out = append(out, [2]string{"math", ast.StringMath(e, alpha)})
	}
	r = rand.New(rand.NewSource(102))
	for trial := 0; trial < 1500; trial++ {
		alpha := ast.NewAlphabet()
		cfg := wordgen.ExprConfig{Symbols: 2 + trial%4, MaxNodes: 10 + trial%50, AllowIter: true}
		e := plusOnly(wordgen.RandomExpr(r, alpha, cfg))
		out = append(out, [2]string{"dtd", ast.StringDTD(e, alpha)})
	}
	r = rand.New(rand.NewSource(103))
	for trial := 0; trial < 1500; trial++ {
		alpha := ast.NewAlphabet()
		cfg := wordgen.ExprConfig{Symbols: 2 + trial%3, MaxNodes: 8 + trial%30, AllowIter: true}
		out = append(out, [2]string{"num", ast.StringMath(wordgen.RandomExpr(r, alpha, cfg), alpha)})
	}
	return out
}

// plusOnly turns every numeric iteration into e+ (e{1,∞}), the only bound
// the plain pipeline accepts.
func plusOnly(e *ast.Node) *ast.Node {
	if e == nil {
		return nil
	}
	c := *e
	c.L, c.R = plusOnly(e.L), plusOnly(e.R)
	if c.Kind == ast.KIter {
		c.Min, c.Max = 1, ast.Unbounded
	}
	return &c
}

// oracleLine compiles one corpus entry and renders its verdict record, or
// "" for deterministic expressions.
func oracleLine(kind, src string) (string, error) {
	var rule string
	var q1, q2 int32
	var amb *Ambiguity
	str := "-"
	if kind == "num" {
		e, err := CompileNumeric(src, Math)
		if err != nil {
			return "", err
		}
		if e.IsDeterministic() {
			return "", nil
		}
		det := e.c.Result()
		rule, q1, q2, amb = det.Rule, det.Q1, det.Q2, e.Explain()
	} else {
		syntax := Math
		if kind == "dtd" {
			syntax = DTD
		}
		e, err := Compile(src, syntax)
		if err != nil {
			return "", err
		}
		if e.IsDeterministic() {
			return "", nil
		}
		rule, q1, q2, amb, str = e.det.Rule, e.det.Q1, e.det.Q2, e.Explain(), e.String()
	}
	return fmt.Sprintf("%s\t%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s",
		kind, src, rule, q1, q2, amb.Rule, amb.Symbol, strings.Join(amb.Word, " "), str), nil
}

// TestNondetOracle pins the first violation (Rule, Q1, Q2), the Explain
// diagnosis and the normalized String of every nondeterministic
// expression of the seeded corpus, byte for byte, against a golden file.
// Regenerate it with -update-oracle only when a change is meant to alter
// these verdicts.
func TestNondetOracle(t *testing.T) {
	var got []string
	for _, s := range oracleSources() {
		line, err := oracleLine(s[0], s[1])
		if err != nil {
			t.Fatalf("%s %q: %v", s[0], s[1], err)
		}
		if line != "" {
			got = append(got, line)
		}
	}
	if len(got) < 2000 {
		t.Fatalf("corpus has %d nondeterministic expressions, want ≥ 2000", len(got))
	}
	if *updateOracle {
		if err := os.WriteFile(oracleFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(oracleFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	i := 0
	for ; sc.Scan(); i++ {
		if i >= len(got) {
			t.Fatalf("golden has more than the %d records produced", len(got))
		}
		if want := sc.Text(); got[i] != want {
			t.Fatalf("record %d differs:\n got %s\nwant %s", i, got[i], want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(got) {
		t.Fatalf("golden has %d records, produced %d", i, len(got))
	}
}
