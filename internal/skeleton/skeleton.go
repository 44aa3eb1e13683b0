// Package skeleton implements §3.1 of the paper: the candidate-pair
// reduction behind the linear-time determinism test.
//
// For every symbol a, the a-skeleton t_a is the LCA-closed set of all
// "class a" nodes — positions labeled a, colored nodes (the parent of
// pSupFirst(p) for every a-labeled position p), and their iterated LCAs —
// extended with the pSupLast and pStar nodes of its members. On this
// forest the package computes the three per-node, per-color candidate
// pointers of Lemma 3.3:
//
//	Witness(n,a)   the witness position for color a at n
//	FirstPos(n,a)  the unique a-position in First(n), if any
//	Next(n,a)      the a-positions in FollowAfter(n)   (Algorithm 1)
//
// along the way verifying conditions (P1) and (P2); a violation of either
// proves the expression nondeterministic and is reported with a witness
// pair. The total size of all skeleta and the total construction time are
// O(|e|) (Lemma 3.1, Lemma 3.2).
package skeleton

import (
	"fmt"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
)

// Violation is the first determinism violation found while constructing the
// skeleta: two distinct, equally-labeled positions Q1, Q2 that can be shown
// to follow a common position.
type Violation struct {
	Rule   string // "P1", "P2", "Y-overflow", "double-first"
	Q1, Q2 parsetree.NodeID
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: positions %d and %d", v.Rule, v.Q1, v.Q2)
}

// Colored identifies a colored node: Node has color Sym with witness
// Witness(Node, Sym); Sk is its index into the flat skeleton arrays.
type Colored struct {
	Sym  ast.Symbol
	Node parsetree.NodeID
	Sk   int32
}

// Skeletons holds every a-skeleton of one expression in flat arrays. The
// skeleton nodes of symbol a occupy indices [Start[a], Start[a+1]), sorted
// by preorder of their e-node, so within a segment parents precede
// children.
type Skeletons struct {
	T   *parsetree.Tree
	Fol *follow.Index

	Start []int32            // len = alphabet size + 1
	ENode []parsetree.NodeID // e-node of each skeleton node
	Par   []int32            // skeleton parent (global index), -1 at roots
	Lch   []int32            // skeleton left child, -1 if none
	Rch   []int32            // skeleton right child, -1 if none
	Wit   []parsetree.NodeID // Witness(n,a), Null if n not colored a
	First []parsetree.NodeID // FirstPos(n,a), Null if none
	Next  []parsetree.NodeID // Next(n,a) after Algorithm 1, Null if none

	ColoredNodes []Colored

	// NonDet is the first violation found, or nil. When set, the arrays
	// above may be partially filled and must not be used for matching.
	NonDet *Violation

	opt Options
}

// Options tunes the construction.
type Options struct {
	// NumericLoops treats numeric iterations with Max ≥ 2 like ∗ nodes
	// when propagating loop candidates in Algorithm 1 (paper §3.3).
	NumericLoops bool
}

// Build constructs all skeleta for t. fol must be an index for t.
func Build(t *parsetree.Tree, fol *follow.Index, opt Options) *Skeletons {
	s := &Skeletons{T: t, Fol: fol, opt: opt}
	if v := s.checkP1(); v != nil {
		s.NonDet = v
		return s
	}
	s.construct()
	if s.NonDet != nil {
		return s
	}
	s.computeFirstPos()
	if s.NonDet != nil {
		return s
	}
	s.buildNext(opt)
	return s
}

// checkP1 verifies condition (P1): no two distinct equally-labeled
// positions share a pSupFirst pointer. One counting sort + one stamped
// scan, O(|e| + σ).
func (s *Skeletons) checkP1() *Violation {
	t := s.T
	n := t.N()
	m := t.NumPositions()
	// Counting sort positions by their pSupFirst node id.
	counts := make([]int32, n+1)
	for i := 0; i < m; i++ {
		p := t.PosNode[i]
		if psf := t.PSupFirst[p]; psf != parsetree.Null {
			counts[psf]++
		}
	}
	offs := make([]int32, n+1)
	var acc int32
	for i := 0; i <= n; i++ {
		offs[i] = acc
		acc += counts[i]
	}
	sorted := make([]parsetree.NodeID, acc)
	for i := 0; i < m; i++ {
		p := t.PosNode[i]
		if psf := t.PSupFirst[p]; psf != parsetree.Null {
			sorted[offs[psf]] = p
			offs[psf]++
		}
	}
	// Scan groups; stamp[symbol] marks the last group the symbol was seen
	// in, so a repeat within one group is a (P1) violation.
	sigma := t.Alpha.Size()
	stamp := make([]int32, sigma)
	prev := make([]parsetree.NodeID, sigma)
	for i := range stamp {
		stamp[i] = -1
	}
	group := int32(0)
	for i := 0; i < len(sorted); {
		j := i
		psf := t.PSupFirst[sorted[i]]
		for j < len(sorted) && t.PSupFirst[sorted[j]] == psf {
			j++
		}
		for k := i; k < j; k++ {
			p := sorted[k]
			sym := t.Sym[p]
			if stamp[sym] == group {
				return &Violation{Rule: "P1", Q1: prev[sym], Q2: p}
			}
			stamp[sym] = group
			prev[sym] = p
		}
		group++
		i = j
	}
	return nil
}

// entry is one (symbol, node) membership candidate for a skeleton,
// optionally carrying a color witness.
type entry struct {
	sym  ast.Symbol
	node parsetree.NodeID
	wit  parsetree.NodeID // Null unless this entry colors node with sym
}

// construct materializes all skeleta: base sets, LCA closure, the
// pSupLast/pStar extension, and the tree structure.
func (s *Skeletons) construct() {
	t := s.T
	sigma := t.Alpha.Size()

	// Base entries: every position, plus a colored entry per position of
	// e′ (and $); # has no pSupFirst and contributes no color.
	entries := make([]entry, 0, 2*t.NumPositions())
	for _, p := range t.PosNode {
		entries = append(entries, entry{t.Sym[p], p, parsetree.Null})
		if psf := t.PSupFirst[p]; psf != parsetree.Null {
			entries = append(entries, entry{t.Sym[p], t.Parent[psf], p})
		}
	}

	// 1. Sort the base sets and close them under LCA: the class-a nodes.
	perSym := s.sortEntries(entries, sigma)
	if s.NonDet != nil {
		return
	}
	perSym = s.lcaClose(perSym, sigma)
	if s.NonDet != nil {
		return
	}

	// 2. Extend with the pSupLast and pStar nodes of the class-a nodes —
	// applied once, exactly as in the paper's skeleton definition.
	var extra []entry
	for sym := 0; sym < sigma; sym++ {
		list := perSym[sym]
		for i := range list {
			node := list[i].node
			if psl := t.PSupLast[node]; psl != parsetree.Null && !containsNode(list, psl) {
				extra = append(extra, entry{ast.Symbol(sym), psl, parsetree.Null})
			}
			ps := t.PStar[node]
			if s.opt.NumericLoops {
				ps = t.PLoop[node] // iterations loop too (§3.3)
			}
			if ps != parsetree.Null && !containsNode(list, ps) {
				extra = append(extra, entry{ast.Symbol(sym), ps, parsetree.Null})
			}
		}
	}
	if len(extra) > 0 {
		for sym := range perSym {
			extra = append(extra, perSym[sym]...)
		}
		perSym = s.sortEntries(extra, sigma)
		if s.NonDet != nil {
			return
		}
		// The extension adds only ancestors of existing members, so the
		// set should stay LCA-closed; lcaClose verifies and repairs if
		// needed.
		perSym = s.lcaClose(perSym, sigma)
		if s.NonDet != nil {
			return
		}
	}

	// Flatten into the arrays and build each skeleton's tree with the
	// classical rightmost-path stack over the preorder-sorted node list.
	s.Start = make([]int32, sigma+1)
	total := 0
	for sym := 0; sym < sigma; sym++ {
		s.Start[sym] = int32(total)
		total += len(perSym[sym])
	}
	s.Start[sigma] = int32(total)
	s.ENode = make([]parsetree.NodeID, total)
	s.Par = make([]int32, total)
	s.Lch = make([]int32, total)
	s.Rch = make([]int32, total)
	s.Wit = make([]parsetree.NodeID, total)
	s.First = make([]parsetree.NodeID, total)
	s.Next = make([]parsetree.NodeID, total)
	for i := range s.Par {
		s.Par[i], s.Lch[i], s.Rch[i] = -1, -1, -1
		s.Wit[i], s.First[i], s.Next[i] = parsetree.Null, parsetree.Null, parsetree.Null
	}
	for sym := 0; sym < sigma; sym++ {
		base := int(s.Start[sym])
		list := perSym[sym]
		var stack []int32
		for i := range list {
			idx := int32(base + i)
			s.ENode[idx] = list[i].node
			s.Wit[idx] = list[i].wit
			if list[i].wit != parsetree.Null {
				s.ColoredNodes = append(s.ColoredNodes, Colored{
					Sym: ast.Symbol(sym), Node: list[i].node, Sk: idx,
				})
			}
			// Pop the rightmost path down to the nearest ancestor.
			for len(stack) > 0 && !t.IsAncestor(s.ENode[stack[len(stack)-1]], list[i].node) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				s.attach(stack[len(stack)-1], idx)
			}
			stack = append(stack, idx)
		}
	}
}

// attach links child c under skeleton parent p, on the e-side determined by
// which e-child subtree of ENode[p] contains ENode[c].
func (s *Skeletons) attach(p, c int32) {
	t := s.T
	s.Par[c] = p
	pe := s.ENode[p]
	if l := t.LChild[pe]; l != parsetree.Null && t.IsAncestor(l, s.ENode[c]) {
		if s.Lch[p] != -1 {
			panic("skeleton: left slot occupied — set not LCA-closed")
		}
		s.Lch[p] = c
		return
	}
	if s.Rch[p] != -1 {
		panic("skeleton: right slot occupied — set not LCA-closed")
	}
	s.Rch[p] = c
}

// lcaClose inserts the LCAs of preorder-consecutive members until the sets
// are LCA-closed. One insertion pass suffices for a preorder-sorted list
// (the classical virtual-tree fact); the loop re-verifies after resorting.
func (s *Skeletons) lcaClose(perSym [][]entry, sigma int) [][]entry {
	for round := 0; ; round++ {
		if round > 8 {
			panic("skeleton: LCA closure did not stabilize")
		}
		var extra []entry
		for sym := 0; sym < sigma; sym++ {
			list := perSym[sym]
			for i := 1; i < len(list); i++ {
				l := s.Fol.LCA.Query(list[i-1].node, list[i].node)
				if !containsNode(list, l) {
					extra = append(extra, entry{ast.Symbol(sym), l, parsetree.Null})
				}
			}
		}
		if len(extra) == 0 {
			return perSym
		}
		for sym := range perSym {
			extra = append(extra, perSym[sym]...)
		}
		perSym = s.sortEntries(extra, sigma)
		if s.NonDet != nil {
			return perSym
		}
	}
}

// sortEntries counting-sorts entries by node id and regroups them per
// symbol, deduplicating nodes and merging witnesses. A node acquiring two
// witnesses for one symbol would contradict (P1), which was checked first.
func (s *Skeletons) sortEntries(entries []entry, sigma int) [][]entry {
	t := s.T
	n := t.N()
	counts := make([]int32, n+1)
	for _, e := range entries {
		counts[e.node]++
	}
	var acc int32
	offs := make([]int32, n+1)
	for i := 0; i <= n; i++ {
		offs[i] = acc
		acc += counts[i]
	}
	sorted := make([]entry, len(entries))
	for _, e := range entries {
		sorted[offs[e.node]] = e
		offs[e.node]++
	}
	perSym := make([][]entry, sigma)
	for _, e := range sorted {
		list := perSym[e.sym]
		if len(list) > 0 && list[len(list)-1].node == e.node {
			last := &list[len(list)-1]
			if e.wit != parsetree.Null {
				if last.wit != parsetree.Null && last.wit != e.wit {
					s.NonDet = &Violation{Rule: "P1", Q1: last.wit, Q2: e.wit}
					return perSym
				}
				last.wit = e.wit
			}
			continue
		}
		perSym[e.sym] = append(list, e)
	}
	return perSym
}

func containsNode(list []entry, n parsetree.NodeID) bool {
	// list is sorted by node id; binary search.
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case list[mid].node == n:
			return true
		case list[mid].node < n:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// computeFirstPos fills FirstPos(n,a) bottom-up: a child's FirstPos
// survives to its skeleton parent iff its pSupFirst still dominates the
// parent (Lemma 2.3). Two surviving candidates would mean two a-positions
// in one First set, which (P1) excludes — reported defensively.
func (s *Skeletons) computeFirstPos() {
	t := s.T
	for sym := 0; sym < len(s.Start)-1; sym++ {
		for i := s.Start[sym+1] - 1; i >= s.Start[sym]; i-- {
			node := s.ENode[i]
			if t.IsPos(node) && ast.Symbol(sym) == t.Sym[node] {
				s.First[i] = node
			}
			f := s.First[i]
			if f == parsetree.Null {
				continue
			}
			p := s.Par[i]
			if p == -1 {
				continue
			}
			if t.IsAncestor(t.PSupFirst[f], s.ENode[p]) {
				if s.First[p] != parsetree.Null && s.First[p] != f {
					s.NonDet = &Violation{Rule: "double-first", Q1: s.First[p], Q2: f}
					return
				}
				s.First[p] = f
			}
		}
	}
}

// symOf returns the symbol whose skeleton contains global index i.
func (s *Skeletons) symOf(i int32) ast.Symbol {
	// Binary search over Start.
	lo, hi := 0, len(s.Start)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.Start[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ast.Symbol(lo)
}

// buildNext is Algorithm 1 of the paper, run iteratively over every
// skeleton root. Y carries at most two candidate positions; a third
// distinct candidate, or a Next set with two elements (condition (P2)
// violated), proves nondeterminism.
func (s *Skeletons) buildNext(opt Options) {
	t := s.T
	type item struct {
		idx int32
		y   ySet
	}
	var stack []item
	for sym := 0; sym < len(s.Start)-1; sym++ {
		for i := s.Start[sym]; i < s.Start[sym+1]; i++ {
			if s.Par[i] == -1 {
				stack = append(stack, item{i, ySet{}})
			}
		}
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := it.idx
		y := it.y
		node := s.ENode[i]
		par := s.Par[i]

		// Line 1-2, strengthened: a SupLast node anywhere on the edge
		// from the skeleton parent down to n (inclusive) cuts everything
		// arriving from above. The paper's skeleton only materializes the
		// pSupLast nodes of class-a members, so a barrier can sit between
		// two skeleton nodes without being one itself; the reflexive
		// pSupLast pointer detects it in O(1). (With the reset at n only,
		// Next could retain candidates outside FollowAfter(n), breaking
		// Lemma 3.2 at uncolored nodes — see skeleton_test.go.)
		if psl := t.PSupLast[node]; psl != parsetree.Null {
			if par == -1 || !t.IsAncestor(psl, s.ENode[par]) {
				y = ySet{}
			}
		}
		// Lines 3-6: pick up the FirstPos of a right sibling in t_a. The
		// candidate is genuine iff Last(n) survives to the left child of
		// the ⊙ ancestor and the sibling's FirstPos survives to its right
		// child — both are Lemma 2.3 pointer checks, which strengthen the
		// printed (¬SupLast(n) ∨ parent_ta(n)=parent_e(n)) test to the
		// one-step skeleton.
		if par != -1 && t.Op[s.ENode[par]] == parsetree.OpCat &&
			s.Lch[par] == i && s.Rch[par] != -1 &&
			t.IsAncestor(t.PSupLast[node], t.LChild[s.ENode[par]]) {
			if f := s.First[s.Rch[par]]; f != parsetree.Null &&
				t.IsAncestor(t.PSupFirst[f], t.RChild[s.ENode[par]]) {
				if !y.add(f) {
					s.reportYOverflow(y, f)
					return
				}
			}
		}
		// Line 7: Next(n,a) = {p ∈ Y | n not an ancestor of p}.
		var next [2]parsetree.NodeID
		cnt := 0
		for k := 0; k < y.n; k++ {
			if !t.IsAncestor(node, y.v[k]) {
				if cnt < 2 {
					next[cnt] = y.v[k]
				}
				cnt++
			}
		}
		if cnt > 1 {
			s.NonDet = &Violation{Rule: "P2", Q1: next[0], Q2: next[1]}
			return
		}
		if cnt == 1 {
			s.Next[i] = next[0]
		}
		// Lines 8-9: a loop node feeds its own FirstPos downwards.
		isLoop := t.Op[node] == parsetree.OpStar ||
			(opt.NumericLoops && t.Op[node] == parsetree.OpIter && t.Max[node] >= 2)
		if isLoop {
			if f := s.First[i]; f != parsetree.Null {
				if !y.add(f) {
					s.reportYOverflow(y, f)
					return
				}
			}
		}
		// Lines 12-17: recurse.
		if c := s.Lch[i]; c != -1 {
			stack = append(stack, item{c, y})
		}
		if c := s.Rch[i]; c != -1 {
			stack = append(stack, item{c, y})
		}
	}
}

func (s *Skeletons) reportYOverflow(y ySet, extra parsetree.NodeID) {
	// add() only fails with two distinct members already present; either
	// pair (and the rejected extra) witnesses |Y| > 2.
	_ = extra
	s.NonDet = &Violation{Rule: "Y-overflow", Q1: y.v[0], Q2: y.v[1]}
}

// ySet is the bounded candidate set Y of Algorithm 1: at most two distinct
// positions (|Y| > 2 already implies nondeterminism).
type ySet struct {
	v [2]parsetree.NodeID
	n int
}

// add inserts p, reporting false when a third distinct element appears.
func (y *ySet) add(p parsetree.NodeID) bool {
	for k := 0; k < y.n; k++ {
		if y.v[k] == p {
			return true
		}
	}
	if y.n == 2 {
		return false
	}
	y.v[y.n] = p
	y.n++
	return true
}

// SymRange returns the skeleton index range of symbol a.
func (s *Skeletons) SymRange(a ast.Symbol) (lo, hi int32) {
	return s.Start[a], s.Start[a+1]
}
