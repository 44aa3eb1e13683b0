package ast

// Arena chunk sizes, in nodes. An arena that outgrows its chunk doubles
// it (from at least minChunk, up to maxChunk), so an expression of n nodes
// costs O(log n) allocations instead of n.
const (
	minChunk = 64
	maxChunk = 1 << 16
)

// arena hands out Nodes from chunked slabs. Nodes of one arena live and
// die together: a pointer into a chunk keeps the whole chunk reachable,
// so an arena backs exactly one tree (a parse, a normalization), which
// is dropped as a unit.
type arena struct {
	chunk []Node
}

// sized returns an arena whose first chunk holds hint nodes (at most
// maxChunk), for callers that know or bound the size of the tree.
func sized(hint int) arena {
	return arena{chunk: make([]Node, 0, min(max(hint, 1), maxChunk))}
}

func (a *arena) node(n Node) *Node {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Node, 0, min(max(2*cap(a.chunk), minChunk), maxChunk))
	}
	a.chunk = append(a.chunk, n)
	return &a.chunk[len(a.chunk)-1]
}

func (a *arena) sym(s Symbol) *Node     { return a.node(Node{Kind: KSym, Sym: s}) }
func (a *arena) cat(l, r *Node) *Node   { return a.node(Node{Kind: KCat, L: l, R: r}) }
func (a *arena) union(l, r *Node) *Node { return a.node(Node{Kind: KUnion, L: l, R: r}) }
func (a *arena) opt(e *Node) *Node      { return a.node(Node{Kind: KOpt, L: e}) }
func (a *arena) star(e *Node) *Node     { return a.node(Node{Kind: KStar, L: e}) }
func (a *arena) iter(e *Node, lo, hi int) *Node {
	return a.node(Node{Kind: KIter, Min: lo, Max: hi, L: e})
}

// clone deep-copies e into the arena.
func (a *arena) clone(e *Node) *Node {
	if e == nil {
		return nil
	}
	c := a.node(*e)
	c.L = a.clone(e.L)
	c.R = a.clone(e.R)
	return c
}
