package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// The generator builds every input the benchmark sends: content models,
// DTD and XSD schema sources, documents and the verdict each document must
// get. Verdicts come from construction (a document is written from a walk
// of its models, and an invalid one is a valid one with a known mutation),
// checked by the small reference matcher in oracle.go, never from the code
// under test. Every size distribution is a fixed ladder; the seed changes
// names, structure and order only, so runs with different seeds measure
// the same amount of work.

type mop uint8

const (
	mSym mop = iota
	mSeq
	mChoice
	mOpt
	mStar
	mPlus
	mCount // XSD {min,max}; max < 0 is unbounded
)

// model is a content model over element names.
type model struct {
	op       mop
	name     string
	kids     []*model
	min, max int
}

func sym(name string) *model          { return &model{op: mSym, name: name} }
func seq(kids ...*model) *model       { return &model{op: mSeq, kids: kids} }
func choice(kids ...*model) *model    { return &model{op: mChoice, kids: kids} }
func unary(op mop, kid *model) *model { return &model{op: op, kids: []*model{kid}} }
func count(kid *model, lo, hi int) *model {
	return &model{op: mCount, kids: []*model{kid}, min: lo, max: hi}
}

// size is the node count of the model tree.
func (m *model) size() int {
	n := 1
	for _, k := range m.kids {
		n += k.size()
	}
	return n
}

// positions is the number of symbol occurrences.
func (m *model) positions() int {
	if m.op == mSym {
		return 1
	}
	n := 0
	for _, k := range m.kids {
		n += k.positions()
	}
	return n
}

func isGroup(m *model) bool { return m.op == mSeq || m.op == mChoice }

// dtd renders m in DTD content-model syntax; the top level is always a
// parenthesized group, as the DTD grammar requires.
func (m *model) dtd() string {
	var b strings.Builder
	top := m
	if !isGroup(m) && !(isUnary(m) && isGroup(m.kids[0])) {
		top = seq(m)
	}
	writeDTD(&b, top)
	return b.String()
}

func isUnary(m *model) bool { return m.op == mOpt || m.op == mStar || m.op == mPlus || m.op == mCount }

func writeDTD(b *strings.Builder, m *model) {
	switch m.op {
	case mSym:
		b.WriteString(m.name)
	case mSeq, mChoice:
		sep := ", "
		if m.op == mChoice {
			sep = " | "
		}
		b.WriteByte('(')
		for i, k := range m.kids {
			if i > 0 {
				b.WriteString(sep)
			}
			writeDTD(b, k)
		}
		b.WriteByte(')')
	default:
		k := m.kids[0]
		if isUnary(k) {
			b.WriteByte('(')
			writeDTD(b, k)
			b.WriteByte(')')
		} else {
			writeDTD(b, k)
		}
		switch {
		case m.op != mCount:
			b.WriteByte("?*+"[m.op-mOpt])
		case m.max < 0:
			fmt.Fprintf(b, "{%d,}", m.min)
		default:
			fmt.Fprintf(b, "{%d,%d}", m.min, m.max)
		}
	}
}

// xsdParticle renders m as an XSD particle; typeOf names each element's
// type. Unary operators become minOccurs/maxOccurs on the particle they
// wrap.
func writeXSD(b *strings.Builder, m *model, lo, hi int, typeOf func(string) string) {
	occ := ""
	if lo != 1 {
		occ += ` minOccurs="` + strconv.Itoa(lo) + `"`
	}
	switch {
	case hi < 0:
		occ += ` maxOccurs="unbounded"`
	case hi != 1:
		occ += ` maxOccurs="` + strconv.Itoa(hi) + `"`
	}
	switch m.op {
	case mSym:
		fmt.Fprintf(b, `<xs:element name="%s" type="%s"%s/>`, m.name, typeOf(m.name), occ)
	case mSeq, mChoice:
		tag := "xs:sequence"
		if m.op == mChoice {
			tag = "xs:choice"
		}
		b.WriteString("<" + tag + occ + ">")
		for _, k := range m.kids {
			writeXSD(b, k, 1, 1, typeOf)
		}
		b.WriteString("</" + tag + ">")
	default:
		klo, khi := 0, 1
		switch m.op {
		case mStar:
			khi = -1
		case mPlus:
			klo, khi = 1, -1
		case mCount:
			klo, khi = m.min, m.max
		}
		if lo != 1 || hi != 1 {
			// Occurrences on occurrences: nest in a one-particle sequence.
			b.WriteString("<xs:sequence" + occ + ">")
			writeXSD(b, m.kids[0], klo, khi, typeOf)
			b.WriteString("</xs:sequence>")
			return
		}
		writeXSD(b, m.kids[0], klo, khi, typeOf)
	}
}

// schema is one generated schema: element names in declaration order, the
// model of each complex element (leaves have none), and the elements whose
// models were built nondeterministic.
type schema struct {
	name   string
	kind   string // "dtd" or "xsd"
	root   string
	order  []string
	models map[string]*model
	nondet []string
	// recursive names the element of the deep-nesting corpus schema that
	// contains itself; the walker nests it exactly down to maxDepth.
	recursive string
}

func (s *schema) add(name string, m *model) {
	s.order = append(s.order, name)
	s.models[name] = m
}

func newSchema(name, kind, root string) *schema {
	return &schema{name: name, kind: kind, root: root, models: map[string]*model{}}
}

// source renders the schema in its own language.
func (s *schema) source() []byte {
	var b strings.Builder
	if s.kind == "dtd" {
		for _, n := range s.order {
			m := s.models[n]
			if m == nil {
				b.WriteString("<!ELEMENT " + n + " (#PCDATA)>\n")
				continue
			}
			b.WriteString("<!ELEMENT " + n + " " + m.dtd() + ">\n")
			b.WriteString("<!ATTLIST " + n + " k CDATA #IMPLIED>\n")
		}
		return []byte(b.String())
	}
	typeOf := func(n string) string {
		if s.models[n] == nil {
			return "xs:string"
		}
		return "T_" + n
	}
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">` + "\n")
	fmt.Fprintf(&b, `<xs:element name="%s" type="%s"/>`+"\n", s.root, typeOf(s.root))
	for _, n := range s.order {
		m := s.models[n]
		if m == nil {
			continue
		}
		b.WriteString(`<xs:complexType name="T_` + n + `">`)
		if isGroup(m) {
			writeXSD(&b, m, 1, 1, typeOf)
		} else {
			writeXSD(&b, seq(m), 1, 1, typeOf)
		}
		b.WriteString("</xs:complexType>\n")
	}
	b.WriteString("</xs:schema>\n")
	return []byte(b.String())
}

// gen is a seeded generator. Names are drawn from a per-generator counter
// with a seeded prefix so that models from different schemas never
// collide unless a repeat is intended.
type gen struct {
	r      *rand.Rand
	prefix string
	next   int
}

func newGen(seed uint64, stream uint64) *gen {
	r := rand.New(rand.NewPCG(seed, stream))
	// A short seeded prefix makes names, and so cache keys, differ across
	// seeds while keeping their lengths equal.
	p := []byte("aaa")
	for i := range p {
		p[i] = byte('a' + r.IntN(26))
	}
	return &gen{r: r, prefix: string(p)}
}

func (g *gen) fresh() string {
	g.next++
	return g.prefix + strconv.Itoa(g.next)
}

// chare builds a chain regular expression (Bex et al.): a sequence of
// factors (a1 | … | ak) each with an optional ?, * or + — the shape most
// real content models have.
func (g *gen) chare(names []string) *model {
	var factors []*model
	for i := 0; i < len(names); {
		w := 1 + g.r.IntN(3)
		if i+w > len(names) {
			w = len(names) - i
		}
		var f *model
		if w == 1 {
			f = sym(names[i])
		} else {
			alts := make([]*model, w)
			for j := range alts {
				alts[j] = sym(names[i+j])
			}
			f = choice(alts...)
		}
		switch g.r.IntN(4) {
		case 1:
			f = unary(mOpt, f)
		case 2:
			f = unary(mStar, f)
		case 3:
			f = unary(mPlus, f)
		}
		factors = append(factors, f)
		i += w
	}
	if len(factors) == 1 && isGroup(factors[0]) {
		return factors[0]
	}
	return seq(factors...)
}

// sore builds a random single-occurrence expression over names: every
// name occurs once, so the model is deterministic whatever its shape. An
// iterated subexpression is never iterated again: with counters, XSD
// reads (x+)+ as ambiguous between the two loops.
func (g *gen) sore(names []string) *model {
	m, _ := g.soreIter(names)
	return m
}

func (g *gen) soreIter(names []string) (m *model, iterated bool) {
	if len(names) == 1 {
		m = sym(names[0])
	} else {
		cut := 1 + g.r.IntN(len(names)-1)
		l, li := g.soreIter(names[:cut])
		r, ri := g.soreIter(names[cut:])
		iterated = li || ri
		if g.r.IntN(2) == 0 {
			m = seq(l, r)
		} else {
			m = choice(l, r)
		}
		if g.r.IntN(5) != 0 {
			return m, iterated
		}
	}
	if len(names) == 1 && g.r.IntN(3) != 0 {
		return m, false
	}
	op := mOpt + mop(g.r.IntN(3))
	if iterated {
		op = mOpt
	}
	return unary(op, m), iterated || op != mOpt
}

// smallModel returns a model in the E9 proportions: 90% CHAREs, the rest
// general single-occurrence expressions.
func (g *gen) smallModel(names []string) *model {
	if g.r.IntN(10) != 0 {
		return g.chare(names)
	}
	return g.sore(names)
}

// nondetModel returns a small model that violates determinism: two
// alternatives starting with the same name, or x?, x.
func (g *gen) nondetModel(a, b, c string) *model {
	if g.r.IntN(2) == 0 {
		return choice(seq(sym(a), sym(b)), seq(sym(a), sym(c)))
	}
	return seq(unary(mOpt, sym(a)), sym(a), unary(mStar, sym(b)))
}

// layeredSchema builds a schema of about n elements: the root's model is
// (head, S)+ over a first layer of names, and each complex element's model
// draws 2–6 names from deeper layers, so documents are finite and grow
// with the number of root iterations. All models are small 1-OREs, which
// fit the dense-table tier.
func (g *gen) layeredSchema(name, kind string, n int) *schema {
	root := g.fresh()
	s := newSchema(name, kind, root)
	const layers = 3
	var levels [layers][]string
	rest := n - 1
	for i := 0; i < rest; i++ {
		l := i * layers / rest
		levels[l] = append(levels[l], g.fresh())
	}
	pick := func(from []string, k int) []string {
		if k > len(from) {
			k = len(from)
		}
		idx := g.r.Perm(len(from))[:k]
		out := make([]string, k)
		for i, j := range idx {
			out[i] = from[j]
		}
		return out
	}
	top := levels[0]
	if len(top) > 6 {
		top = pick(top, 6)
	}
	// A required head element separates the root's iterations, so an
	// iterated factor at the end of the body never competes with the
	// next iteration.
	head := g.fresh()
	s.add(root, unary(mPlus, seq(sym(head), g.smallModel(top))))
	s.add(head, nil)
	for l := 0; l < layers; l++ {
		for _, e := range levels[l] {
			if l == layers-1 || g.r.IntN(3) == 0 {
				s.add(e, nil)
				continue
			}
			var deeper []string
			for m := l + 1; m < layers; m++ {
				deeper = append(deeper, levels[m]...)
			}
			s.add(e, g.smallModel(pick(deeper, 2+g.r.IntN(5))))
		}
	}
	return s
}

// wideChoice is (t1 | … | tn)* over n fresh leaves: past the table budget
// from about a thousand names, it lands on the k-ORE tier.
func (g *gen) wideChoice(s *schema, n int) *model {
	alts := make([]*model, n)
	for i := range alts {
		t := g.fresh()
		alts[i] = sym(t)
		s.add(t, nil)
	}
	return unary(mStar, choice(alts...))
}

// blockModel is a starred sequence of n blocks (p, (q | r)?, p?, s, p?):
// every p occurs three times, the model stays deterministic, and past a
// thousand positions it lands on the path-decomposition tier.
func (g *gen) blockModel(s *schema, n int) *model {
	blocks := make([]*model, n)
	for i := range blocks {
		p, q, r, t := g.fresh(), g.fresh(), g.fresh(), g.fresh()
		for _, e := range []string{p, q, r, t} {
			s.add(e, nil)
		}
		blocks[i] = seq(sym(p), unary(mOpt, choice(sym(q), sym(r))), unary(mOpt, sym(p)), sym(t), unary(mOpt, sym(p)))
	}
	return unary(mStar, seq(blocks...))
}

// bigSore is (h, S)* for a random single-occurrence expression S of
// about nodes model nodes over fresh leaves. The required head h keeps it
// deterministic once x+ is desugared to x, x*: an iterated x at the end
// of S never competes with the next iteration.
func (g *gen) bigSore(s *schema, nodes int) *model {
	names := make([]string, nodes/2)
	for i := range names {
		names[i] = g.fresh()
		s.add(names[i], nil)
	}
	return unary(mStar, seq(sym(names[0]), g.sore(names[1:])))
}

// doc is a generated document with its expected verdict.
type doc struct {
	schema string
	body   []byte
	valid  bool
	// words are the child-name sequences of the document's complex
	// elements, kept for the stepping rung of the traced ladder.
	words []word
}

type word struct {
	elem  string
	names []string
}

type xnode struct {
	name string
	attr bool
	text string
	kids []*xnode
}

// walk appends one random word of m to dst. iter bounds star, plus and
// unbounded counter iterations.
func (g *gen) walk(dst []string, m *model, iter int) []string {
	switch m.op {
	case mSym:
		return append(dst, m.name)
	case mSeq:
		for _, k := range m.kids {
			dst = g.walk(dst, k, iter)
		}
	case mChoice:
		dst = g.walk(dst, m.kids[g.r.IntN(len(m.kids))], iter)
	case mOpt:
		if g.r.IntN(2) == 0 {
			dst = g.walk(dst, m.kids[0], iter)
		}
	case mStar, mPlus, mCount:
		lo, hi := 0, iter
		if m.op == mPlus {
			lo = 1
		}
		if m.op == mCount {
			lo = m.min
			if m.max >= 0 {
				hi = m.max
			} else {
				hi = m.min + iter
			}
		}
		if hi < lo {
			hi = lo
		}
		for n := lo + g.r.IntN(hi-lo+1); n > 0; n-- {
			dst = g.walk(dst, m.kids[0], iter)
		}
	}
	return dst
}

// minWord is the shortest word of m.
func minWord(dst []string, m *model) []string {
	switch m.op {
	case mSym:
		return append(dst, m.name)
	case mSeq:
		for _, k := range m.kids {
			dst = minWord(dst, k)
		}
	case mChoice:
		best := minWord(nil, m.kids[0])
		for _, k := range m.kids[1:] {
			if w := minWord(nil, k); len(w) < len(best) {
				best = w
			}
		}
		dst = append(dst, best...)
	case mPlus:
		dst = minWord(dst, m.kids[0])
	case mCount:
		for i := 0; i < m.min; i++ {
			dst = minWord(dst, m.kids[0])
		}
	}
	return dst
}

// element builds the subtree of one element. Past maxDepth, complex
// elements take their shortest word, which never contains the recursive
// element.
func (g *gen) element(s *schema, name string, depth, maxDepth int, words *[]word) *xnode {
	n := &xnode{name: name}
	m := s.models[name]
	n.attr = m != nil && g.r.IntN(4) == 0
	if m == nil {
		n.text = g.text()
		return n
	}
	var names []string
	switch {
	case depth >= maxDepth:
		names = minWord(nil, m)
	case name == s.recursive:
		// Keep exactly one recursive child per level, so nesting reaches
		// maxDepth without the subtree growing exponentially.
		for names = g.walk(nil, m, 3); countOf(names, s.recursive) != 1; names = g.walk(names[:0], m, 3) {
		}
	default:
		names = g.walk(nil, m, 3)
	}
	*words = append(*words, word{elem: name, names: names})
	for _, c := range names {
		n.kids = append(n.kids, g.element(s, c, depth+1, maxDepth, words))
	}
	return n
}

var textWords = []string{"alpha", "beta", "gamma", "delta", "lorem", "ipsum", "dolor", "sit", "amet", "x &amp; y"}

func (g *gen) text() string {
	var b strings.Builder
	for n := 1 + g.r.IntN(4); n > 0; n-- {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(textWords[g.r.IntN(len(textWords))])
	}
	return b.String()
}

func (n *xnode) write(b *strings.Builder) {
	b.WriteByte('<')
	b.WriteString(n.name)
	if n.attr {
		b.WriteString(` k="v`)
		b.WriteString(strconv.Itoa(len(n.name)))
		b.WriteByte('"')
	}
	if n.text == "" && len(n.kids) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	b.WriteString(n.text)
	for _, k := range n.kids {
		k.write(b)
	}
	b.WriteString("</")
	b.WriteString(n.name)
	b.WriteString(">\n")
}

// document generates one document of s of about target bytes: the root's
// model is walked once per iteration, appending its children, until the
// serialized size reaches the target. When invalid is set, a mutation the
// reference matcher confirms breaks the document is applied.
func (g *gen) document(s *schema, target, maxDepth int, invalid bool) doc {
	var words []word
	root := &xnode{name: s.root}
	rm := s.models[s.root]
	// The root model is an iterated group; walk its body one iteration at
	// a time so the size can be steered.
	body, lo := rm, 0
	if isUnary(rm) {
		body = rm.kids[0]
		if rm.op == mPlus {
			lo = 1
		}
		if rm.op == mCount {
			lo = rm.min
		}
	}
	var rootWord []string
	size := 0
	for iter := 0; iter < lo || size < target; iter++ {
		names := g.walk(nil, body, 3)
		for _, c := range names {
			k := g.element(s, c, 1, maxDepth, &words)
			root.kids = append(root.kids, k)
			size += k.approxSize()
		}
		rootWord = append(rootWord, names...)
		if rm.op == mCount && rm.max >= 0 && iter+1 >= rm.max {
			break
		}
	}
	words = append(words, word{elem: s.root, names: rootWord})
	if invalid {
		g.mutate(s, root)
	}
	var b strings.Builder
	b.Grow(size + size/8 + 64)
	root.write(&b)
	return doc{schema: s.name, body: []byte(b.String()), valid: !invalid, words: words}
}

func (n *xnode) approxSize() int {
	s := 2*len(n.name) + 5 + len(n.text)
	if n.attr {
		s += 8
	}
	for _, k := range n.kids {
		s += k.approxSize()
	}
	return s
}

// mutate makes the document invalid. It tries, in a seeded order, to
// delete or duplicate one child of a complex element so that the
// reference matcher rejects the element's new child sequence; failing
// that, it inserts an undeclared element, which every validator rejects.
func (g *gen) mutate(s *schema, root *xnode) {
	var complex []*xnode
	var collect func(n *xnode)
	collect = func(n *xnode) {
		if s.models[n.name] != nil {
			complex = append(complex, n)
		}
		for _, k := range n.kids {
			collect(k)
		}
	}
	collect(root)
	for tries := 0; tries < 8 && len(complex) > 0; tries++ {
		n := complex[g.r.IntN(len(complex))]
		if len(n.kids) == 0 || len(n.kids) > 64 {
			continue
		}
		i := g.r.IntN(len(n.kids))
		kids := make([]*xnode, 0, len(n.kids)+1)
		if g.r.IntN(2) == 0 {
			kids = append(append(kids, n.kids[:i]...), n.kids[i+1:]...)
		} else {
			kids = append(append(kids, n.kids[:i+1]...), n.kids[i:]...)
		}
		names := make([]string, len(kids))
		for j, k := range kids {
			names[j] = k.name
		}
		if !accepts(s.models[n.name], names) {
			n.kids = kids
			return
		}
	}
	n := root
	if len(complex) > 0 {
		n = complex[g.r.IntN(len(complex))]
	}
	n.kids = append(n.kids, &xnode{name: "undeclared-" + g.prefix})
}

// logLadder spreads n values log-uniformly over [lo, hi] in a seeded
// order: the multiset of values is the same for every seed.
func (g *gen) logLadder(n int, lo, hi float64) []int {
	out := make([]int, n)
	for i, j := range g.r.Perm(n) {
		f := (float64(i) + 0.5) / float64(n)
		out[j] = int(lo * math.Pow(hi/lo, f))
	}
	return out
}

// invalidSlots marks exactly every tenth of n slots invalid, in a seeded
// order.
func (g *gen) invalidSlots(n int) []bool {
	out := make([]bool, n)
	for i, j := range g.r.Perm(n) {
		out[j] = i%10 == 9
	}
	return out
}

func countOf(names []string, name string) int {
	n := 0
	for _, s := range names {
		if s == name {
			n++
		}
	}
	return n
}
