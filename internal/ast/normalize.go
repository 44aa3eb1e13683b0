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
// nodes with the input).
func Normalize(e *Node) *Node {
	switch e.Kind {
	case KSym:
		return Sym(e.Sym)
	case KCat:
		return Cat(Normalize(e.L), Normalize(e.R))
	case KUnion:
		return Union(Normalize(e.L), Normalize(e.R))
	case KOpt:
		l := Normalize(e.L)
		if Nullable(l) {
			return l // (R3)
		}
		return Opt(l)
	case KStar:
		l := Normalize(e.L)
		if l.Kind == KStar {
			return l // (R2)
		}
		return Star(l)
	case KIter:
		l := Normalize(e.L)
		min, max := e.Min, e.Max
		if Nullable(l) && min > 0 {
			// ε ∈ L(body) makes every lower bound reachable by padding
			// empty iterations: L(x{i,j}) = L(x{0,j}).
			min = 0
		}
		switch {
		case min == 1 && max == 1:
			return l
		case min == 0 && max == Unbounded:
			if l.Kind == KStar {
				return l
			}
			return Star(l)
		case min == 0 && max == 1:
			if Nullable(l) {
				return l
			}
			return Opt(l)
		case min == 0:
			inner := Iter(l, 1, max)
			if Nullable(l) {
				return inner
			}
			return Opt(inner)
		default:
			return Iter(l, min, max)
		}
	}
	panic("ast.Normalize: bad kind")
}

// DesugarPlus rewrites every remaining one-or-more iteration e{1,∞} into the
// plain-operator form e·(e)* (or e* when the body is nullable). This doubles
// the positions of the body, which is exactly the classical desugaring; the
// Glushkov follow relation — and hence determinism — of the two forms
// coincide. Other numeric iterations are left untouched (package numeric
// handles them natively). The input is not mutated.
func DesugarPlus(e *Node) *Node {
	switch e.Kind {
	case KSym:
		return Sym(e.Sym)
	case KCat:
		return Cat(DesugarPlus(e.L), DesugarPlus(e.R))
	case KUnion:
		return Union(DesugarPlus(e.L), DesugarPlus(e.R))
	case KOpt:
		return Opt(DesugarPlus(e.L))
	case KStar:
		return Star(DesugarPlus(e.L))
	case KIter:
		l := DesugarPlus(e.L)
		if e.Min == 1 && e.Max == Unbounded {
			if Nullable(l) {
				return Star(l)
			}
			return Cat(l, Star(Clone(l)))
		}
		return Iter(l, e.Min, e.Max)
	}
	panic("ast.DesugarPlus: bad kind")
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

// ValidatePlain returns an error if e contains operators outside the
// paper's core grammar (i.e. any remaining numeric iteration).
func ValidatePlain(e *Node) error {
	var bad *Node
	Walk(e, func(n *Node) {
		if bad == nil && n.Kind == KIter {
			bad = n
		}
	})
	if bad != nil {
		return fmt.Errorf("ast: numeric iteration {%d,%s} requires the numeric pipeline (dregex.CompileNumeric) or Unroll",
			bad.Min, boundString(bad.Max))
	}
	return nil
}

func boundString(max int) string {
	if max == Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d", max)
}
