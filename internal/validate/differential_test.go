package validate_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dregex/internal/dtd"
	"dregex/internal/validate"
	"dregex/internal/xsd"
)

// particle is a counter-free content model over element names, written out
// in both DTD and XSD syntax.
type particle struct {
	op   byte // 'e' element, ',' sequence, '|' choice
	name string
	kids []*particle
	occ  string // "", "?", "*" or "+"
}

func (p *particle) dtd() string {
	if p.op == 'e' {
		return p.name + p.occ
	}
	parts := make([]string, len(p.kids))
	for i, k := range p.kids {
		parts[i] = k.dtd()
	}
	return "(" + strings.Join(parts, string(p.op)) + ")" + p.occ
}

func (p *particle) xsd(b *strings.Builder) {
	occ := map[string]string{
		"":  "",
		"?": ` minOccurs="0"`,
		"*": ` minOccurs="0" maxOccurs="unbounded"`,
		"+": ` maxOccurs="unbounded"`,
	}[p.occ]
	if p.op == 'e' {
		fmt.Fprintf(b, `<xs:element ref="%s"%s/>`, p.name, occ)
		return
	}
	tag := map[byte]string{',': "sequence", '|': "choice"}[p.op]
	fmt.Fprintf(b, "<xs:%s%s>", tag, occ)
	for _, k := range p.kids {
		k.xsd(b)
	}
	fmt.Fprintf(b, "</xs:%s>", tag)
}

// sample appends a child sequence the particle matches (or, when the
// random choices run over their budget, a truncation of one).
func (p *particle) sample(rng *rand.Rand, out []string) []string {
	n := 1
	switch p.occ {
	case "?":
		n = rng.Intn(2)
	case "*":
		n = rng.Intn(3)
	case "+":
		n = 1 + rng.Intn(2)
	}
	for ; n > 0; n-- {
		switch p.op {
		case 'e':
			out = append(out, p.name)
		case ',':
			for _, k := range p.kids {
				out = k.sample(rng, out)
			}
		case '|':
			out = p.kids[rng.Intn(len(p.kids))].sample(rng, out)
		}
	}
	return out
}

// grammar is a random schema: element i has a content model over the
// elements after it (nil: EMPTY), so every document it generates is finite.
type grammar struct {
	names  []string
	models []*particle
}

func randParticle(rng *rand.Rand, names []string, depth int) *particle {
	occ := []string{"", "", "?", "*", "+"}[rng.Intn(5)]
	if depth == 0 || rng.Intn(3) == 0 {
		return &particle{op: 'e', name: names[rng.Intn(len(names))], occ: occ}
	}
	p := &particle{op: ",|"[rng.Intn(2)], occ: occ}
	for i := 2 + rng.Intn(2); i > 0; i-- {
		p.kids = append(p.kids, randParticle(rng, names, depth-1))
	}
	return p
}

func randGrammar(rng *rand.Rand) *grammar {
	g := &grammar{}
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		g.names = append(g.names, fmt.Sprintf("e%d", i))
	}
	for i := range g.names {
		var m *particle
		if later := g.names[i+1:]; len(later) > 0 && rng.Intn(4) != 0 {
			m = randParticle(rng, later, 2)
			if m.op == 'e' {
				m = &particle{op: ',', kids: []*particle{m}}
			}
		}
		g.models = append(g.models, m)
	}
	return g
}

func (g *grammar) dtdSource() string {
	var b strings.Builder
	for i, name := range g.names {
		model := "EMPTY"
		if m := g.models[i]; m != nil {
			model = m.dtd()
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, model)
	}
	return b.String()
}

func (g *grammar) xsdSource() string {
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">` + "\n")
	for i, name := range g.names {
		fmt.Fprintf(&b, `<xs:element name="%s"><xs:complexType>`, name)
		if m := g.models[i]; m != nil {
			m.xsd(&b)
		}
		b.WriteString("</xs:complexType></xs:element>\n")
	}
	b.WriteString("</xs:schema>")
	return b.String()
}

// doc writes a document whose elements have children sampled from their
// models (mutation 0), or applies a mutation: 1 inserts an undeclared
// element, 2 text in element-only content, 3 writes two roots, 4 no root,
// and 5 draws children at random rather than from the models.
func (g *grammar) doc(rng *rand.Rand, mutation int) string {
	var b strings.Builder
	var write func(i, depth int)
	write = func(i, depth int) {
		fmt.Fprintf(&b, "<%s>", g.names[i])
		if m := g.models[i]; m != nil && depth < 6 {
			kids := m.sample(rng, nil)
			if mutation == 5 {
				// A random tree: children drawn from all names, not the model.
				kids = kids[:0]
				for n := rng.Intn(4); n > 0; n-- {
					kids = append(kids, g.names[rng.Intn(len(g.names))])
				}
			}
			for _, c := range kids {
				if rng.Intn(4) == 0 {
					b.WriteString([]string{"\n", "  ", "\n\t"}[rng.Intn(3)])
				}
				j := 0
				for g.names[j] != c {
					j++
				}
				write(j, depth+1)
			}
		}
		if mutation == 1 && rng.Intn(3) == 0 {
			b.WriteString("<undeclared><e0/></undeclared>")
		}
		if mutation == 2 && rng.Intn(3) == 0 {
			b.WriteString("text")
		}
		fmt.Fprintf(&b, "</%s>", g.names[i])
	}
	switch mutation {
	case 3:
		write(rng.Intn(len(g.names)), 0)
		b.WriteString("\n")
		write(rng.Intn(len(g.names)), 0)
	case 4:
		b.WriteString([]string{"", "<!-- no root -->", "<?pi x?>\n"}[rng.Intn(3)])
	default:
		write(rng.Intn(len(g.names)), 0)
	}
	return b.String()
}

// FuzzDTDXSDDocuments is the document-level differential between the two
// front ends: one counter-free deterministic content model per element,
// written as a DTD and as a schema, must give every document the same
// verdict — and on an invalid document the same first violation (path,
// position and expected-next hint). Each front end must also report the
// same with and without its child tables.
func FuzzDTDXSDDocuments(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed%6))
	}
	f.Fuzz(func(t *testing.T, seed int64, mutation uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Random models repeating a name are often nondeterministic; draw
		// grammars until one is not.
		var g *grammar
		var d *dtd.DTD
		for try := 0; d == nil; try++ {
			if try == 20 {
				t.Skip("no deterministic grammar drawn")
			}
			g = randGrammar(rng)
			var err error
			if d, err = dtd.Parse(g.dtdSource()); err != nil {
				t.Fatalf("DTD:\n%s\n%v", g.dtdSource(), err)
			}
			if len(d.Check()) > 0 {
				d = nil
			}
		}
		s, err := xsd.Parse([]byte(g.xsdSource()))
		if err != nil {
			t.Fatalf("schema:\n%s\n%v", g.xsdSource(), err)
		}
		for _, typ := range s.AllTypes {
			if !typ.Deterministic {
				t.Fatalf("schema type %s is nondeterministic but its DTD twin is not", typ.Name)
			}
		}
		for i := 0; i < 8; i++ {
			doc := g.doc(rng, int(mutation)%6)
			sameWithoutTables(t, d.Model(), doc)
			sameWithoutTables(t, s.Model(), doc)
			derrs, derr := d.ValidateBytes([]byte(doc))
			xerrs, xerr := s.ValidateBytes([]byte(doc))
			dvalid := derr == nil && len(derrs) == 0
			xvalid := xerr == nil && len(xerrs) == 0
			if dvalid != xvalid || (derr == nil) != (xerr == nil) {
				t.Fatalf("verdicts differ on %q\nDTD: %v %v\nXSD: %v %v\nDTD source:\n%s",
					doc, derrs, derr, xerrs, xerr, g.dtdSource())
			}
			if len(derrs) == 0 || len(xerrs) == 0 {
				continue
			}
			if !sameSite(derrs[0], xerrs[0]) {
				t.Fatalf("first violations differ on %q\nDTD: %+v\nXSD: %+v\nDTD source:\n%s",
					doc, derrs[0], xerrs[0], g.dtdSource())
			}
		}
	})
}

// sameSite reports whether two violations point at the same place with
// the same expected-next hint; the wording is each front end's own.
func sameSite(a, b validate.Error) bool {
	return a.Path == b.Path && a.Line == b.Line && a.Col == b.Col &&
		reflect.DeepEqual(a.Expected, b.Expected)
}
