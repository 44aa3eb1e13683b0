// Package kore implements Theorem 4.3 of the paper: matching against a
// deterministic k-occurrence regular expression (k-ORE) in O(|e| + k|w|)
// after O(|e|) preprocessing. A k-ORE uses each symbol at most k times, so
// a transition from position p on symbol a only needs the constant-time
// checkIfFollow test (Theorem 2.4) against the ≤ k positions labeled a.
//
// The package also provides the nondeterministic variant sketched after
// Theorem 4.3: a position-set simulation costing O(k²) per symbol, which
// matches arbitrary (possibly nondeterministic) expressions.
package kore

import (
	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
)

// Matcher is the deterministic k-ORE transition simulator.
type Matcher struct {
	t   *parsetree.Tree
	fol *follow.Index
	// occ[a] lists the positions labeled a, in document order.
	occ [][]parsetree.NodeID
	// K is the largest occurrence count (the k in k-ORE).
	K int
}

// New preprocesses t in O(|e|). The expression should be deterministic for
// Next to be meaningful (with duplicates followers, the first in document
// order wins); determinism is the caller's contract, checked by the public
// API layer.
//
// The occurrence lists are views into one array, filled by a counting sort
// of the positions by symbol, so construction allocates twice however
// many symbols the expression has.
func New(t *parsetree.Tree, fol *follow.Index) *Matcher {
	m := &Matcher{t: t, fol: fol, occ: make([][]parsetree.NodeID, t.Alpha.Size())}
	end := make([]int, len(m.occ)+1) // end[a+1]: positions labeled ≤ a
	for _, p := range t.PosNode {
		end[t.Sym[p]+1]++
	}
	for a := range m.occ {
		m.K = max(m.K, end[a+1])
		end[a+1] += end[a]
	}
	all := make([]parsetree.NodeID, len(t.PosNode))
	for a := range m.occ {
		m.occ[a] = all[end[a]:end[a]:end[a+1]]
	}
	for _, p := range t.PosNode {
		s := t.Sym[p]
		m.occ[s] = append(m.occ[s], p)
	}
	return m
}

// Tree implements match.TransitionSim.
func (m *Matcher) Tree() *parsetree.Tree { return m.t }

// Start implements match.TransitionSim.
func (m *Matcher) Start() parsetree.NodeID { return m.t.BeginPos() }

// Next returns the a-labeled follower of p in O(k).
func (m *Matcher) Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID {
	if a < 0 || int(a) >= len(m.occ) {
		return parsetree.Null
	}
	for _, q := range m.occ[a] {
		if m.fol.CheckIfFollow(p, q) {
			return q
		}
	}
	return parsetree.Null
}

// Accept implements match.TransitionSim.
func (m *Matcher) Accept(p parsetree.NodeID) bool {
	return m.fol.CheckIfFollow(p, m.t.EndPos())
}

// NFA is the nondeterministic k-ORE matcher: it tracks the set of
// positions reachable on the prefix read so far (≤ k positions, since all
// share the last symbol), costing O(k²) per symbol.
type NFA struct {
	m *Matcher
}

// NewNFA wraps a Matcher's tables for set simulation.
func NewNFA(t *parsetree.Tree, fol *follow.Index) *NFA {
	return &NFA{m: New(t, fol)}
}

// K returns the occurrence bound.
func (n *NFA) K() int { return n.m.K }

// Match runs the set simulation over a word of interned symbols.
func (n *NFA) Match(word []ast.Symbol) bool {
	cur := []parsetree.NodeID{n.m.t.BeginPos()}
	var next []parsetree.NodeID
	for _, a := range word {
		next = next[:0]
		if a >= ast.FirstUser && int(a) < len(n.m.occ) {
			for _, q := range n.m.occ[a] {
				for _, p := range cur {
					if n.m.fol.CheckIfFollow(p, q) {
						next = append(next, q)
						break
					}
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur, next = next, cur
	}
	end := n.m.t.EndPos()
	for _, p := range cur {
		if n.m.fol.CheckIfFollow(p, end) {
			return true
		}
	}
	return false
}

// MatchNames is Match over symbol names.
func (n *NFA) MatchNames(names []string) bool {
	alpha := n.m.t.Alpha
	word := make([]ast.Symbol, len(names))
	for i, name := range names {
		s, ok := alpha.Lookup(name)
		if !ok || s == ast.Begin || s == ast.End {
			return false
		}
		word[i] = s
	}
	return n.Match(word)
}
