package validate_test

import (
	"fmt"
	"strings"
	"testing"

	"dregex/internal/dtd"
	"dregex/internal/validate"
	"dregex/internal/xsd"
)

// corpusShape is one in-memory document with the model it validates
// against.
type corpusShape struct {
	name    string
	model   validate.Model
	doc     []byte
	symbols int // child elements stepped through content models
}

// shapeChildren sizes the shapes' documents. They are small so that a
// benchmark run takes many iterations: B/op is pinned at zero, and a rare
// allocation by the runtime itself must round to nothing per iteration.
const shapeChildren = 200

// corpusShapes builds the shapes of the repository benchmark's corpus run
// in miniature: a DTD document under a 2000-way choice (a large element
// vocabulary over a simple model, where resolving names costs more than
// stepping), the same document with the corpus's text in its leaves, and
// a schema document under {m,n} counters.
func corpusShapes(tb testing.TB) []corpusShape {
	tb.Helper()
	const width = 2000
	var src, doc strings.Builder
	src.WriteString("<!ELEMENT wide (")
	for i := 1; i <= width; i++ {
		if i > 1 {
			src.WriteString(" | ")
		}
		fmt.Fprintf(&src, "t%d", i)
	}
	src.WriteString(")*>\n")
	for i := 1; i <= width; i++ {
		fmt.Fprintf(&src, "<!ELEMENT t%d (#PCDATA)>\n", i)
	}
	doc.WriteString("<wide>\n")
	for i := 0; i < shapeChildren; i++ {
		fmt.Fprintf(&doc, "<t%d>x</t%d>\n", 1+i*7919%width, 1+i*7919%width)
	}
	doc.WriteString("</wide>")
	d, err := dtd.Parse(src.String())
	if err != nil {
		tb.Fatal(err)
	}
	shapes := []corpusShape{{"dtd", d.Model(), []byte(doc.String()), shapeChildren}}

	// The corpus's leaves hold 1–4 words; a quarter of them hold "&amp;".
	words := []string{"alpha", "beta", "gamma", "delta", "lorem", "ipsum", "dolor", "sit", "amet"}
	doc.Reset()
	doc.WriteString("<wide>\n")
	for i := 0; i < shapeChildren; i++ {
		name := fmt.Sprintf("t%d", 1+i*7919%width)
		doc.WriteString("<" + name + ">")
		for j := i % 4; j > 0; j-- {
			doc.WriteString(words[(i+j)%len(words)] + " ")
		}
		if i%4 == 1 {
			doc.WriteString("x &amp; y")
		} else {
			doc.WriteString(words[i%len(words)])
		}
		doc.WriteString("</" + name + ">\n")
	}
	doc.WriteString("</wide>")
	shapes = append(shapes, corpusShape{"dtd-text", d.Model(), []byte(doc.String()), shapeChildren})

	s, err := xsd.Parse([]byte(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc"><xs:complexType><xs:sequence>
    <xs:element name="rec" minOccurs="1" maxOccurs="1000000"><xs:complexType><xs:sequence>
      <xs:element name="id" type="xs:string"/>
      <xs:element name="a" type="xs:string" minOccurs="2" maxOccurs="4"/>
      <xs:choice minOccurs="1" maxOccurs="6">
        <xs:element name="b" type="xs:string"/>
        <xs:element name="c" type="xs:string"/>
      </xs:choice>
      <xs:element name="e" type="xs:string" minOccurs="0"/>
    </xs:sequence></xs:complexType></xs:element>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`))
	if err != nil {
		tb.Fatal(err)
	}
	doc.Reset()
	doc.WriteString("<doc>\n")
	symbols := 0
	for i := 0; i < shapeChildren/10; i++ {
		doc.WriteString("<rec><id>r</id>")
		doc.WriteString(strings.Repeat("<a>x</a>", 2+i%3))
		for j := 0; j <= i%6; j++ {
			doc.WriteString([]string{"<b>y</b>", "<c>z</c>"}[(i+j)%2])
		}
		symbols += 1 + 1 + 2 + i%3 + 1 + i%6
		if i%2 == 0 {
			doc.WriteString("<e/>")
			symbols++
		}
		doc.WriteString("</rec>\n")
	}
	doc.WriteString("</doc>")
	return append(shapes, corpusShape{"xsd", s.Model(), []byte(doc.String()), symbols})
}

// TestValidateCorpusShapesZeroAlloc pins the in-memory validation of both
// corpus shapes, through a reused State, at zero allocations per
// document; it also checks the State's symbol tally.
func TestValidateCorpusShapesZeroAlloc(t *testing.T) {
	for _, sh := range corpusShapes(t) {
		var st validate.State
		run := func() {
			if errs, err := st.ValidateBytes(sh.model, sh.doc); err != nil || len(errs) != 0 {
				t.Fatalf("%s: errs=%v err=%v", sh.name, errs, err)
			}
		}
		run() // grow the State's buffers
		if st.Symbols() != sh.symbols {
			t.Errorf("%s: %d symbols stepped, want %d", sh.name, st.Symbols(), sh.symbols)
		}
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Errorf("%s: %.1f allocs per document, want 0", sh.name, n)
		}
	}
}

// BenchmarkValidateCorpusShapes is the validation pass alone — no read,
// no handler — on the two corpus shapes.
func BenchmarkValidateCorpusShapes(b *testing.B) {
	for _, sh := range corpusShapes(b) {
		b.Run(sh.name, func(b *testing.B) {
			var st validate.State
			if errs, err := st.ValidateBytes(sh.model, sh.doc); err != nil || len(errs) != 0 {
				b.Fatalf("errs=%v err=%v", errs, err)
			}
			b.SetBytes(int64(len(sh.doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.ValidateBytes(sh.model, sh.doc)
			}
		})
	}
}
