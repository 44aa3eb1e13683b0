package ast

import (
	"errors"
	"fmt"
)

// Normalize enforces the paper's structural requirements (R2) and (R3) by
// language-preserving rewrites:
//
//	(R2)  ((e)*)*  never appears:      Star(Star(x)) → Star(x)
//	(R3)  (e)? only for ε ∉ L(e):      Opt(x) with Nullable(x) → x
//
// (R1), the #…$ wrapping, is applied when the expression is compiled into a
// parse tree (package parsetree), not here. Numeric iterations are left in
// place but their bodies are normalized; additionally the degenerate bounds
// e{1,1} → e, e{0,∞} → e*, and e{0,j} → (e{1,j})? are rewritten, so that
// after Normalize every remaining KIter node has Min ≥ 1 and Max ≥ 2.
//
// Normalize never mutates its argument; it returns a fresh tree (sharing no
// nodes with the input) allocated from one arena. Nullability is carried up
// the recursion, so the rewrite is linear in |e| however deeply ? and
// iterations nest.
func Normalize(e *Node) *Node {
	a := sized(Size(e))
	n, _ := a.normalize(e, false)
	return n
}

// normalize returns the normal form of e and whether ε ∈ L(e); with
// desugar it also rewrites e{1,∞}, giving Canonical's form.
func (a *arena) normalize(e *Node, desugar bool) (*Node, bool) {
	switch e.Kind {
	case KSym:
		return a.sym(e.Sym), false
	case KCat:
		l, ln := a.normalize(e.L, desugar)
		r, rn := a.normalize(e.R, desugar)
		return a.cat(l, r), ln && rn
	case KUnion:
		l, ln := a.normalize(e.L, desugar)
		r, rn := a.normalize(e.R, desugar)
		return a.union(l, r), ln || rn
	case KOpt:
		l, null := a.normalize(e.L, desugar)
		if null {
			return l, true // (R3)
		}
		return a.opt(l), true
	case KStar:
		l, _ := a.normalize(e.L, desugar)
		if l.Kind == KStar {
			return l, true // (R2)
		}
		return a.star(l), true
	case KIter:
		l, null := a.normalize(e.L, desugar)
		min, max := e.Min, e.Max
		if desugar && !null && min == 1 && max == Unbounded {
			// l+ survives Normalize only with a non-nullable body; the
			// desugaring yields l·l*, which a second Normalize leaves
			// alone (a non-nullable l is no star).
			return a.cat(l, a.star(a.clone(l))), false
		}
		// Every other iteration comes out of Normalize with bounds a
		// second pass leaves stable, so Canonical treats it likewise.
		if null && min > 0 {
			// ε ∈ L(body) makes every lower bound reachable by padding
			// empty iterations: L(x{i,j}) = L(x{0,j}).
			min = 0
		}
		switch {
		case min == 1 && max == 1:
			return l, null
		case min == 0 && max == Unbounded:
			if l.Kind == KStar {
				return l, true
			}
			return a.star(l), true
		case min == 0 && max == 1:
			if null {
				return l, true
			}
			return a.opt(l), true
		case min == 0:
			inner := a.iter(l, 1, max)
			if null {
				return inner, true
			}
			return a.opt(inner), true
		default:
			return a.iter(l, min, max), false
		}
	}
	panic("ast.Normalize: bad kind")
}

// DesugarPlus rewrites every remaining one-or-more iteration e{1,∞} into the
// plain-operator form e·(e)* (or e* when the body is nullable). This doubles
// the positions of the body, which is exactly the classical desugaring; the
// Glushkov follow relation — and hence determinism — of the two forms
// coincide. Other numeric iterations are left untouched (package numeric
// handles them natively). The input is not mutated; the result is a fresh
// tree allocated from one arena.
func DesugarPlus(e *Node) *Node {
	a := sized(Size(e))
	n, _ := a.desugarPlus(e)
	return n
}

// desugarPlus returns the desugared e and whether ε ∈ L(e).
func (a *arena) desugarPlus(e *Node) (*Node, bool) {
	switch e.Kind {
	case KSym:
		return a.sym(e.Sym), false
	case KCat:
		l, ln := a.desugarPlus(e.L)
		r, rn := a.desugarPlus(e.R)
		return a.cat(l, r), ln && rn
	case KUnion:
		l, ln := a.desugarPlus(e.L)
		r, rn := a.desugarPlus(e.R)
		return a.union(l, r), ln || rn
	case KOpt:
		l, _ := a.desugarPlus(e.L)
		return a.opt(l), true
	case KStar:
		l, _ := a.desugarPlus(e.L)
		return a.star(l), true
	case KIter:
		l, null := a.desugarPlus(e.L)
		if e.Min == 1 && e.Max == Unbounded {
			if null {
				return a.star(l), true
			}
			return a.cat(l, a.star(a.clone(l))), false
		}
		return a.iter(l, e.Min, e.Max), e.Min == 0 || null
	}
	panic("ast.DesugarPlus: bad kind")
}

// Canonical returns Normalize(DesugarPlus(Normalize(e))), the form every
// compile pipeline runs on, in one bottom-up pass into one arena. Both
// rewrites preserve the language, so the nullability Normalize carries up
// also serves the desugaring and the second pass; per node the
// composition is Normalize's rewrite plus the e{1,∞} → e·e* step (see
// normalize). The input is not mutated and shares no nodes with the
// result.
func Canonical(e *Node) *Node {
	a := sized(Size(e))
	n, _ := a.normalize(e, true)
	return n
}

// ErrUnrollTooLarge is returned by Unroll when the expansion would exceed
// the position budget.
var ErrUnrollTooLarge = errors.New("ast: unrolled expression exceeds position budget")

// Unroll expands every numeric iteration into plain operators using the
// canonical unrolling
//
//	x{i,j} = x·x·…·x (i copies) · ( x ( x ( … )? )? )?   (j−i optional copies)
//	x{i,∞} = x·x·…·x (i copies) · (x)*
//
// This is the language-preserving expansion used as the determinism *spec*
// for numeric occurrence indicators: package numeric's tests check its
// linear counted checker against the plain checker run on this unrolling
// (see the package numeric documentation). maxPositions
// bounds the size of the result; ErrUnrollTooLarge is returned when the
// expansion would exceed it.
func Unroll(e *Node, maxPositions int) (*Node, error) {
	budget := maxPositions
	var rec func(n *Node) (*Node, error)
	rec = func(n *Node) (*Node, error) {
		switch n.Kind {
		case KSym:
			budget--
			if budget < 0 {
				return nil, ErrUnrollTooLarge
			}
			return Sym(n.Sym), nil
		case KCat:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			r, err := rec(n.R)
			if err != nil {
				return nil, err
			}
			return Cat(l, r), nil
		case KUnion:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			r, err := rec(n.R)
			if err != nil {
				return nil, err
			}
			return Union(l, r), nil
		case KOpt:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			return Opt(l), nil
		case KStar:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			return Star(l), nil
		case KIter:
			var parts []*Node
			for i := 0; i < n.Min; i++ {
				c, err := rec(n.L)
				if err != nil {
					return nil, err
				}
				parts = append(parts, c)
			}
			var tail *Node
			if n.Max == Unbounded {
				c, err := rec(n.L)
				if err != nil {
					return nil, err
				}
				tail = Star(c)
			} else if extra := n.Max - n.Min; extra > 0 {
				// Innermost-first nesting of optional copies.
				for i := 0; i < extra; i++ {
					c, err := rec(n.L)
					if err != nil {
						return nil, err
					}
					if tail == nil {
						tail = optIfNeeded(c)
					} else {
						tail = optIfNeeded(Cat(c, tail))
					}
				}
			}
			if tail != nil {
				parts = append(parts, tail)
			}
			if len(parts) == 0 {
				return nil, fmt.Errorf("ast: cannot unroll %s{0,0}", n.L.Kind)
			}
			return CatAll(parts...), nil
		}
		panic("ast.Unroll: bad kind")
	}
	return rec(e)
}

// optIfNeeded wraps e in ? unless it is already nullable (keeping the
// result (R3)-clean).
func optIfNeeded(e *Node) *Node {
	if Nullable(e) {
		return e
	}
	return Opt(e)
}
