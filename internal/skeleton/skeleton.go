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
//
// Layout. Construction works on one flat array of (symbol, node) entries
// sorted by symbol, then node, with per-symbol offsets — the layout of
// Skeletons.Start. Each sorting round (base sets, LCA closure, the
// pSupLast/pStar extension) is two stable counting sorts over that array:
// by node, where duplicate entries merge their witnesses in node order
// (so the first violation reported is independent of the layout), then by
// symbol. The rounds share their scratch arrays and the tree pass shares
// one stack across symbols, so a build costs O(log |e|) allocations.
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

// builder holds the construction's working set: every skeleton's members
// in one flat array sorted by (symbol, node), with per-symbol offsets —
// the layout of Skeletons.Start — and the scratch the sorting rounds
// reuse.
type builder struct {
	s    *Skeletons
	ents []entry // members sorted by (symbol, node); candidates appended after
	tmp  []entry // sort scratch
	off  []int32 // len sigma+1: symbol a's members are ents[off[a]:off[a+1]]
	cnt  []int32 // counting-sort counters, len max(n, sigma)+1
	last []int32 // per symbol: index in tmp of its entry at the current node
}

// seg returns the sorted members of symbol sym.
func (b *builder) seg(sym int) []entry { return b.ents[b.off[sym]:b.off[sym+1]] }

// construct materializes all skeleta: base sets, LCA closure, the
// pSupLast/pStar extension, and the tree structure.
func (s *Skeletons) construct() {
	t := s.T
	sigma := t.Alpha.Size()
	b := &builder{
		s:    s,
		ents: make([]entry, 0, 2*t.NumPositions()),
		off:  make([]int32, sigma+1),
		cnt:  make([]int32, max(t.N(), sigma)+1),
		last: make([]int32, sigma),
	}

	// Base entries: every position, plus a colored entry per position of
	// e′ (and $); # has no pSupFirst and contributes no color.
	for _, p := range t.PosNode {
		b.ents = append(b.ents, entry{t.Sym[p], p, parsetree.Null})
		if psf := t.PSupFirst[p]; psf != parsetree.Null {
			b.ents = append(b.ents, entry{t.Sym[p], t.Parent[psf], p})
		}
	}

	// 1. Sort the base sets and close them under LCA: the class-a nodes.
	if !b.sort() || !b.lcaClose() {
		return
	}

	// 2. Extend with the pSupLast and pStar nodes of the class-a nodes —
	// applied once, exactly as in the paper's skeleton definition. Members
	// of one skeleton often share these ancestors; added[x] = a+1 marks x
	// as already added for symbol a, so each is appended once.
	members := len(b.ents)
	added := b.cnt[:t.N()]
	clear(added)
	extend := func(sym int, list []entry, x parsetree.NodeID) {
		if x != parsetree.Null && added[x] != int32(sym)+1 && !containsNode(list, x) {
			added[x] = int32(sym) + 1
			b.ents = append(b.ents, entry{ast.Symbol(sym), x, parsetree.Null})
		}
	}
	for sym := 0; sym < sigma; sym++ {
		list := b.seg(sym)
		for i := range list {
			node := list[i].node
			extend(sym, list, t.PSupLast[node])
			if s.opt.NumericLoops {
				extend(sym, list, t.PLoop[node]) // iterations loop too (§3.3)
			} else {
				extend(sym, list, t.PStar[node])
			}
		}
	}
	if len(b.ents) > members {
		// The extension adds only ancestors of existing members, so the
		// set should stay LCA-closed; lcaClose verifies and repairs if
		// needed.
		if !b.sort() || !b.lcaClose() {
			return
		}
	}
	b.flatten()
}

// flatten copies the sorted members into the Skeletons arrays and builds
// each skeleton's tree with the classical rightmost-path stack over its
// preorder-sorted node list; one stack serves every symbol.
func (b *builder) flatten() {
	s, t := b.s, b.s.T
	total := len(b.ents)
	s.Start = b.off
	// One allocation backs the seven per-member arrays.
	arr := make([]int32, 7*total)
	s.ENode, arr = arr[:total:total], arr[total:]
	s.Par, arr = arr[:total:total], arr[total:]
	s.Lch, arr = arr[:total:total], arr[total:]
	s.Rch, arr = arr[:total:total], arr[total:]
	s.Wit, arr = arr[:total:total], arr[total:]
	s.First, arr = arr[:total:total], arr[total:]
	s.Next = arr[:total:total]
	colored := 0
	for i, e := range b.ents {
		s.ENode[i], s.Wit[i] = e.node, e.wit
		s.Par[i], s.Lch[i], s.Rch[i] = -1, -1, -1
		s.First[i], s.Next[i] = parsetree.Null, parsetree.Null
		if e.wit != parsetree.Null {
			colored++
		}
	}
	s.ColoredNodes = make([]Colored, 0, colored)
	var stack []int32
	for sym := 0; sym < len(s.Start)-1; sym++ {
		stack = stack[:0]
		for idx := s.Start[sym]; idx < s.Start[sym+1]; idx++ {
			node := s.ENode[idx]
			if s.Wit[idx] != parsetree.Null {
				s.ColoredNodes = append(s.ColoredNodes, Colored{
					Sym: ast.Symbol(sym), Node: node, Sk: idx,
				})
			}
			// Pop the rightmost path down to the nearest ancestor.
			for len(stack) > 0 && !t.IsAncestor(s.ENode[stack[len(stack)-1]], node) {
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
// It reports false when sorting found a violation.
func (b *builder) lcaClose() bool {
	lca := b.s.Fol.LCA
	for round := 0; ; round++ {
		if round > 8 {
			panic("skeleton: LCA closure did not stabilize")
		}
		members := len(b.ents)
		for sym := 0; sym+1 < len(b.off); sym++ {
			list := b.seg(sym)
			for i := 1; i < len(list); i++ {
				l := lca.Query(list[i-1].node, list[i].node)
				if !containsNode(list, l) {
					b.ents = append(b.ents, entry{ast.Symbol(sym), l, parsetree.Null})
				}
			}
		}
		if len(b.ents) == members {
			return true
		}
		if !b.sort() {
			return false
		}
	}
}

// sort orders b.ents by (symbol, node), deduplicating (symbol, node)
// pairs and merging their witnesses, and recomputes b.off. Two stable
// counting sorts do it: by node into tmp, where duplicates are merged in
// node order, then by symbol back into ents. A node acquiring two
// witnesses for one symbol would contradict (P1), which was checked first;
// it is reported (and sort returns false) for the first such node in node
// order.
func (b *builder) sort() bool {
	t := b.s.T
	n := t.N()
	if cap(b.tmp) < len(b.ents) {
		b.tmp = make([]entry, len(b.ents), cap(b.ents))
	}
	tmp := b.tmp[:len(b.ents)]

	cnt := b.cnt[:n+1]
	clear(cnt)
	for _, e := range b.ents {
		cnt[e.node+1]++
	}
	for i := 1; i <= n; i++ {
		cnt[i] += cnt[i-1]
	}
	for _, e := range b.ents {
		tmp[cnt[e.node]] = e
		cnt[e.node]++
	}

	// Merge duplicates in node order: last[sym] indexes sym's entry at
	// the node being scanned (entries of one node are contiguous).
	for i := range b.last {
		b.last[i] = -1
	}
	k := 0
	for _, e := range tmp {
		if j := b.last[e.sym]; j >= 0 && tmp[j].node == e.node {
			kept := &tmp[j]
			if e.wit != parsetree.Null {
				if kept.wit != parsetree.Null && kept.wit != e.wit {
					b.s.NonDet = &Violation{Rule: "P1", Q1: kept.wit, Q2: e.wit}
					return false
				}
				kept.wit = e.wit
			}
			continue
		}
		b.last[e.sym] = int32(k)
		tmp[k] = e
		k++
	}
	tmp = tmp[:k]

	sigma := len(b.off) - 1
	off := b.off
	clear(off)
	for _, e := range tmp {
		off[e.sym+1]++
	}
	for i := 1; i <= sigma; i++ {
		off[i] += off[i-1]
	}
	b.ents = b.ents[:k]
	cnt = b.cnt[:sigma]
	copy(cnt, off[:sigma])
	for _, e := range tmp {
		b.ents[cnt[e.sym]] = e
		cnt[e.sym]++
	}
	return true
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
	// Skeleton roots are walked from the last index down, each tree to
	// completion before the next root, so the stack holds one tree's
	// frontier at a time. (This is the order of pushing every root first
	// and popping, so the first violation found is the same.)
	t := s.T
	var stack []item
	for root := int32(len(s.ENode)) - 1; root >= 0; root-- {
		if s.Par[root] != -1 {
			continue
		}
		stack = append(stack[:0], item{root, ySet{}})
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
}

func (s *Skeletons) reportYOverflow(y ySet, extra parsetree.NodeID) {
	// add() only fails with two distinct members already present; either
	// pair (and the rejected extra) witnesses |Y| > 2.
	_ = extra
	s.NonDet = &Violation{Rule: "Y-overflow", Q1: y.v[0], Q2: y.v[1]}
}

// item is a skeleton node awaiting Algorithm 1, with the candidate set
// arriving from above.
type item struct {
	idx int32
	y   ySet
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
