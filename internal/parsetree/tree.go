// Package parsetree compiles a normalized regular expression into the
// array-based parse tree on which all algorithms of the paper operate.
//
// The tree realizes §2 of Groz/Maneth/Staworko (PODS 2012):
//
//   - rule (R1): the user expression e′ is wrapped as (#e′)$, with # and $
//     materialized as real positions;
//   - preorder/postorder numbering (for O(1) ancestor tests), depth;
//   - nullability, the SupFirst/SupLast predicates, and the pSupFirst,
//     pSupLast and pStar pointers of Lemma 2.3 / Theorem 2.4.
//
// Nodes are dense int32 ids in preorder; all attributes live in parallel
// slices, so a compiled tree is a handful of allocations regardless of
// expression size.
package parsetree

import (
	"errors"
	"fmt"

	"dregex/internal/ast"
)

// NodeID indexes a node of the tree. Node ids equal preorder numbers.
type NodeID = int32

// Null is the absent-node sentinel returned by child/pointer accessors.
const Null NodeID = -1

// Op is the operator stored at a node.
type Op uint8

// Operators. OpSym marks a position (leaf).
const (
	OpSym Op = iota
	OpCat
	OpUnion
	OpOpt
	OpStar
	OpIter
)

func (o Op) String() string {
	switch o {
	case OpSym:
		return "sym"
	case OpCat:
		return "·"
	case OpUnion:
		return "+"
	case OpOpt:
		return "?"
	case OpStar:
		return "*"
	case OpIter:
		return "{i,j}"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Tree is the compiled parse tree of (#e′)$.
//
// All slices are indexed by NodeID. Child and pointer slices contain Null
// where the respective node does not exist. Because node ids are preorder
// numbers, a 4 b (a is an ancestor of b, reflexively) holds iff
// a ≤ b && Post[b] ≤ Post[a].
type Tree struct {
	Alpha *ast.Alphabet

	Op     []Op
	Sym    []ast.Symbol // symbol at leaves; -1 elsewhere
	Min    []int32      // OpIter lower bound; 0 elsewhere
	Max    []int32      // OpIter upper bound (IterUnbounded = ∞); 0 elsewhere
	Parent []NodeID
	LChild []NodeID
	RChild []NodeID
	Post   []int32 // postorder number
	Depth  []int32 // root has depth 0

	Nullable []bool
	SupFirst []bool
	SupLast  []bool

	// PSupFirst[n], PSupLast[n]: lowest (reflexive) ancestor of n that is a
	// SupFirst (resp. SupLast) node; Null above the topmost one.
	PSupFirst []NodeID
	PSupLast  []NodeID
	// PStar[n]: lowest (reflexive) ancestor labeled *; Null if none.
	PStar []NodeID
	// PLoop[n]: lowest (reflexive) ancestor that can loop, i.e. labeled *
	// or an OpIter with Max ≥ 2. Equals PStar for plain expressions; used
	// by the numeric pipeline (§3.3).
	PLoop []NodeID

	// PosNode[i] is the node of the i-th position in left-to-right order;
	// PosNode[0] is # and PosNode[len-1] is $.
	PosNode []NodeID
	// PosIndex[n] is the position index of leaf n, or -1 for inner nodes.
	PosIndex []int32

	// Root is the (#e′)$ concatenation; UserRoot is the root of e′.
	Root     NodeID
	UserRoot NodeID
}

// IterUnbounded is the Max value of an unbounded OpIter node.
const IterUnbounded = int32(1<<31 - 1)

// ErrIterUnsupported is returned by Build when the expression still
// contains numeric occurrence indicators.
var ErrIterUnsupported = errors.New("parsetree: numeric iteration requires BuildNumeric")

// Build compiles a plain (star/opt/union/cat) expression. The input should
// already be in (R2)/(R3) normal form (ast.Normalize); Build wraps it per
// (R1) and rejects numeric iterations.
func Build(e *ast.Node, alpha *ast.Alphabet) (*Tree, error) {
	return build(e, alpha, true)
}

// BuildNumeric compiles an expression that may contain numeric occurrence
// indicators e{i,j} (paper §3.3). Bounds should be in normal form
// (Min ≥ 1, Max ≥ 2; see ast.Normalize).
func BuildNumeric(e *ast.Node, alpha *ast.Alphabet) (*Tree, error) {
	return build(e, alpha, false)
}

// build compiles e; plain rejects numeric iterations (ErrIterUnsupported).
func build(e *ast.Node, alpha *ast.Alphabet, plain bool) (*Tree, error) {
	if e == nil {
		return nil, errors.New("parsetree: nil expression")
	}
	// (R1) wrapping: root = (#·e′)·$.
	wrapped := ast.Cat(ast.Cat(ast.Sym(ast.Begin), e), ast.Sym(ast.End))
	n := ast.Size(wrapped)
	t := &Tree{
		Alpha:     alpha,
		Op:        make([]Op, n),
		Sym:       make([]ast.Symbol, n),
		Min:       make([]int32, n),
		Max:       make([]int32, n),
		Parent:    make([]NodeID, n),
		LChild:    make([]NodeID, n),
		RChild:    make([]NodeID, n),
		Post:      make([]int32, n),
		Depth:     make([]int32, n),
		Nullable:  make([]bool, n),
		SupFirst:  make([]bool, n),
		SupLast:   make([]bool, n),
		PSupFirst: make([]NodeID, n),
		PSupLast:  make([]NodeID, n),
		PStar:     make([]NodeID, n),
		PLoop:     make([]NodeID, n),
		PosIndex:  make([]int32, n),
	}

	// Iterative preorder construction (expressions can be very deep).
	type frame struct {
		n      *ast.Node
		parent NodeID
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{wrapped, Null})
	next := NodeID(0)
	post := int32(0)
	leaves := 0
	// postStack tracks nodes whose subtrees are being emitted so we can
	// assign postorder numbers; we instead compute Post in a second pass
	// below, which is simpler with an explicit preorder stack.
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := next
		next++
		a := f.n
		t.Parent[id] = f.parent
		t.LChild[id] = Null
		t.RChild[id] = Null
		t.Sym[id] = -1
		t.PosIndex[id] = -1
		if f.parent != Null {
			t.Depth[id] = t.Depth[f.parent] + 1
			if t.LChild[f.parent] == Null {
				t.LChild[f.parent] = id
			} else {
				t.RChild[f.parent] = id
			}
		}
		switch a.Kind {
		case ast.KSym:
			t.Op[id] = OpSym
			t.Sym[id] = a.Sym
			leaves++
		case ast.KCat:
			t.Op[id] = OpCat
		case ast.KUnion:
			t.Op[id] = OpUnion
		case ast.KOpt:
			t.Op[id] = OpOpt
		case ast.KStar:
			t.Op[id] = OpStar
		case ast.KIter:
			if plain {
				return nil, ErrIterUnsupported
			}
			t.Op[id] = OpIter
			t.Min[id] = int32(a.Min)
			if a.Max == ast.Unbounded {
				t.Max[id] = IterUnbounded
			} else {
				t.Max[id] = int32(a.Max)
			}
			if a.Min < 1 || (t.Max[id] != IterUnbounded && a.Max < 2) {
				return nil, fmt.Errorf("parsetree: iteration bounds {%d,%d} not in normal form (run ast.Normalize)", a.Min, a.Max)
			}
		default:
			return nil, fmt.Errorf("parsetree: unknown ast kind %v", a.Kind)
		}
		// Push right first so the left subtree gets smaller preorder ids.
		if a.R != nil {
			stack = append(stack, frame{a.R, id})
		}
		if a.L != nil {
			stack = append(stack, frame{a.L, id})
		}
	}
	if int(next) != n {
		return nil, fmt.Errorf("parsetree: built %d of %d nodes", next, n)
	}
	t.Root = 0
	t.UserRoot = t.RChild[t.LChild[t.Root]]

	// Postorder numbers, nullability and positions in one iterative
	// post-order pass.
	t.PosNode = make([]NodeID, 0, leaves)
	type pf struct {
		id       NodeID
		expanded bool
	}
	pstack := make([]pf, 0, 64)
	pstack = append(pstack, pf{t.Root, false})
	for len(pstack) > 0 {
		f := &pstack[len(pstack)-1]
		if !f.expanded {
			f.expanded = true
			id := f.id
			if r := t.RChild[id]; r != Null {
				pstack = append(pstack, pf{r, false})
			}
			if l := t.LChild[id]; l != Null {
				pstack = append(pstack, pf{l, false})
			}
			continue
		}
		id := f.id
		pstack = pstack[:len(pstack)-1]
		t.Post[id] = post
		post++
		switch t.Op[id] {
		case OpSym:
			t.PosIndex[id] = int32(len(t.PosNode))
			t.PosNode = append(t.PosNode, id)
			t.Nullable[id] = false
		case OpCat:
			t.Nullable[id] = t.Nullable[t.LChild[id]] && t.Nullable[t.RChild[id]]
		case OpUnion:
			t.Nullable[id] = t.Nullable[t.LChild[id]] || t.Nullable[t.RChild[id]]
		case OpOpt, OpStar:
			t.Nullable[id] = true
		case OpIter:
			t.Nullable[id] = t.Nullable[t.LChild[id]]
		}
	}

	// Positions were appended in postorder of leaves, which coincides with
	// left-to-right order; nothing to fix up. Now the top-down attributes.
	for id := NodeID(0); id < NodeID(n); id++ {
		p := t.Parent[id]
		if p != Null && t.Op[p] == OpCat {
			if id == t.RChild[p] {
				t.SupFirst[id] = !t.Nullable[t.LChild[p]]
			} else {
				t.SupLast[id] = !t.Nullable[t.RChild[p]]
			}
		}
		// Preorder ids mean parents precede children, so the pointer
		// arrays can be filled in id order.
		inherit := func(dst []NodeID, self bool) {
			if self {
				dst[id] = id
			} else if p == Null {
				dst[id] = Null
			} else {
				dst[id] = dst[p]
			}
		}
		inherit(t.PSupFirst, t.SupFirst[id])
		inherit(t.PSupLast, t.SupLast[id])
		inherit(t.PStar, t.Op[id] == OpStar)
		inherit(t.PLoop, t.Op[id] == OpStar || (t.Op[id] == OpIter && t.Max[id] >= 2))
	}
	return t, nil
}

// N returns the number of nodes including the (R1) wrapper.
func (t *Tree) N() int { return len(t.Op) }

// NumPositions returns |Pos(e)| including the phantom # and $.
func (t *Tree) NumPositions() int { return len(t.PosNode) }

// BeginPos returns the node of the phantom # position.
func (t *Tree) BeginPos() NodeID { return t.PosNode[0] }

// EndPos returns the node of the phantom $ position.
func (t *Tree) EndPos() NodeID { return t.PosNode[len(t.PosNode)-1] }

// IsAncestor reports a 4 b: a is a (reflexive) ancestor of b. Either
// argument may be Null, in which case the answer is false.
func (t *Tree) IsAncestor(a, b NodeID) bool {
	if a == Null || b == Null {
		return false
	}
	return a <= b && t.Post[b] <= t.Post[a]
}

// IsPos reports whether n is a position (leaf).
func (t *Tree) IsPos(n NodeID) bool { return t.Op[n] == OpSym }

// InFirst reports p ∈ First(n) for a position p, via Lemma 2.3(1):
// p ∈ First(n) iff pSupFirst(p) 4 n 4 p.
func (t *Tree) InFirst(p, n NodeID) bool {
	return t.IsAncestor(t.PSupFirst[p], n) && t.IsAncestor(n, p)
}

// InLast reports p ∈ Last(n) for a position p, via Lemma 2.3(2).
func (t *Tree) InLast(p, n NodeID) bool {
	return t.IsAncestor(t.PSupLast[p], n) && t.IsAncestor(n, p)
}

// FirstWitness returns some position in First(n) (always non-empty).
func (t *Tree) FirstWitness(n NodeID) NodeID {
	for t.Op[n] != OpSym {
		n = t.LChild[n] // for every operator, First(L) ⊆ First(n)
	}
	return n
}

// LastWitness returns some position in Last(n).
func (t *Tree) LastWitness(n NodeID) NodeID {
	for t.Op[n] != OpSym {
		if t.Op[n] == OpCat {
			n = t.RChild[n] // Last(R) ⊆ Last(n)
		} else if t.Op[n] == OpUnion {
			n = t.RChild[n]
		} else {
			n = t.LChild[n]
		}
	}
	return n
}

// Label returns the display name of position p's symbol.
func (t *Tree) Label(p NodeID) string { return t.Alpha.Name(t.Sym[p]) }

// SubexprString renders the subexpression rooted at n in math notation;
// intended for error messages and debugging (recursive, so use on
// reasonably sized subtrees).
func (t *Tree) SubexprString(n NodeID) string {
	switch t.Op[n] {
	case OpSym:
		return t.Alpha.Name(t.Sym[n])
	case OpCat:
		return "(" + t.SubexprString(t.LChild[n]) + t.SubexprString(t.RChild[n]) + ")"
	case OpUnion:
		return "(" + t.SubexprString(t.LChild[n]) + "+" + t.SubexprString(t.RChild[n]) + ")"
	case OpOpt:
		return t.SubexprString(t.LChild[n]) + "?"
	case OpStar:
		return t.SubexprString(t.LChild[n]) + "*"
	case OpIter:
		if t.Max[n] == IterUnbounded {
			return fmt.Sprintf("%s{%d,}", t.SubexprString(t.LChild[n]), t.Min[n])
		}
		return fmt.Sprintf("%s{%d,%d}", t.SubexprString(t.LChild[n]), t.Min[n], t.Max[n])
	}
	return "?op?"
}
