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

// sameWithoutTables validates doc against m twice, once with the child
// tables and once with every child resolved through Model.Child (and
// every tag's attributes through Model.Attrs), and fails unless both
// report the same violations, document error and symbol count. It
// returns the violations.
func sameWithoutTables(t *testing.T, m validate.Model, doc string) []validate.Error {
	t.Helper()
	var on, off validate.State
	validate.SetChildTables(&off, false)
	errsOn, errOn := on.ValidateBytes(m, []byte(doc))
	errsOff, errOff := off.ValidateBytes(m, []byte(doc))
	if !reflect.DeepEqual(errsOn, errsOff) || fmt.Sprint(errOn) != fmt.Sprint(errOff) {
		t.Fatalf("child tables change the report on %q\nwith:    %+v %v\nwithout: %+v %v",
			doc, errsOn, errOn, errsOff, errOff)
	}
	if on.Symbols() != off.Symbols() {
		t.Fatalf("child tables change the symbol count on %q: %d with, %d without", doc, on.Symbols(), off.Symbols())
	}
	return errsOn
}

// TestChildTablesFuzzSeeds runs the child-table differential over every
// FuzzDTDXSDDocuments seed, in both schema syntaxes, and over each grammar
// the seed draws — nondeterministic ones included.
func TestChildTablesFuzzSeeds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for try := 0; try < 20; try++ {
			g := randGrammar(rng)
			d, err := dtd.Parse(g.dtdSource())
			if err != nil {
				t.Fatal(err)
			}
			s, err := xsd.Parse([]byte(g.xsdSource()))
			if err != nil {
				t.Fatal(err)
			}
			for mutation := 0; mutation < 6; mutation++ {
				doc := g.doc(rng, mutation)
				sameWithoutTables(t, d.Model(), doc)
				sameWithoutTables(t, s.Model(), doc)
			}
			if len(d.Check()) == 0 {
				break // the grammar the fuzz target keeps
			}
		}
	}
}

// bookDTD is the publishing DTD of the dtd package's validator tests.
const bookDTD = `
<!ELEMENT book (title, author+, chapter+, appendix*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT chapter (title, (para | figure)*)>
<!ELEMENT appendix (title, para*)>
<!ELEMENT para (#PCDATA | em | code)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT code EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ELEMENT figure EMPTY>
`

// catalogSchema is the counter schema of the xsd package's validator
// tests.
const catalogSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="catalog"><xs:complexType><xs:sequence>
    <xs:element name="product" type="ProductType" minOccurs="1" maxOccurs="unbounded"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:complexType name="ProductType"><xs:sequence>
    <xs:element name="sku" type="xs:string"/>
    <xs:element name="img" type="xs:string" minOccurs="2" maxOccurs="4"/>
    <xs:element name="note" type="NoteType" minOccurs="0"/>
  </xs:sequence></xs:complexType>
  <xs:complexType name="NoteType" mixed="true"><xs:sequence>
    <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
  </xs:sequence></xs:complexType>
</xs:schema>`

func product(imgs int, note string) string {
	return "<product><sku>X</sku>" + strings.Repeat("<img>i</img>", imgs) + note + "</product>"
}

// TestChildTablesValidatorDocs runs the child-table differential over the
// dtd and xsd validator test documents plus the cases the tables must
// leave to Model.Child.
func TestChildTablesValidatorDocs(t *testing.T) {
	dtds := []struct {
		name, src string
		docs      []string
	}{
		{"book", bookDTD, []string{
			`<book isbn="i1"><title>T</title><author>A</author><author>B</author>
  <chapter><title>C1</title><para>text <em>emph</em> more</para><figure/></chapter>
  <appendix><title>Ap</title></appendix></book>`,
			`<book isbn="i1"><title>T</title><chapter><title>c</title></chapter></book>`,
			`<book isbn="i1"><title>T</title><author>A</author></book>`,
			`<book isbn="i1"><title>T</title><author>A</author><chapter><title>c</title><mystery/></chapter></book>`,
			`<book isbn="i1"><title>T</title><author>A</author><chapter><title>c</title><figure><em>x</em></figure></chapter></book>`,
			`<book isbn="i1">stray<title>T</title><author>A</author><chapter><title>c</title></chapter></book>`,
			`<book isbn="i1"><title>T</title><author>A</author><chapter><title>c</title><para><figure/></para></chapter></book>`,
			// A missing #REQUIRED attribute on an attribute-less tag.
			`<book><title>T</title><author>A</author><chapter><title>c</title></chapter></book>`,
			// Children outside the parent's alphabet, under a live and
			// under an already failed parent.
			`<book isbn="i"><title>T</title><em>x</em><author>A</author><chapter><title>c</title></chapter></book>`,
			`<book isbn="i"><author>A</author><em>x</em><code/><chapter><title>c</title></chapter></book>`,
			`<book isbn="i"><title>T</title><author>A</author><chapter><title>c</title></chapter></book><book/>`,
			``,
			`<book isbn="i"><title>T</title>`,
		}},
		{"attributes", `
<!ELEMENT r (a*)>
<!ELEMENT a (#PCDATA)>
<!ATTLIST a id ID #IMPLIED ref IDREF #IMPLIED refs IDREFS #IMPLIED
  kind (x|y) #IMPLIED fix CDATA #FIXED "f" req CDATA #REQUIRED>
<!ATTLIST r dflt IDREF "a1" many IDREFS "a1 a2">`, []string{
			`<r><a req="1" ref="later"/><a req="1" id="later"/><a req="1" id="a1"/></r>`,
			`<r><a req="1" id="a1" refs=" a1  a1 "/></r>`,
			`<r><a req="1" id="a1" ref="ghost"/></r>`,
			`<r><a req="1"/></r>`,
			`<r><a/><a></a></r>`,
			`<r><a req="1" id="d" id2="x"/></r>`,
			`<r><a req="1" kind="z" id="a1"/></r>`,
			`<r dflt="a2"><a req="1" fix="g" id="a2"/></r>`,
			`<r xmlns="u" xmlns:p="v"><a req="1" id="a1"/></r>`,
		}},
		// Model names with no <!ELEMENT>, and ATTLISTs of undeclared
		// elements.
		{"undeclared", `
<!ELEMENT r (a, ghost?, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b (#PCDATA)>
<!ATTLIST ghost must CDATA #REQUIRED>
<!ATTLIST b at CDATA #IMPLIED>`, []string{
			`<r><a/><ghost/><b/></r>`,
			`<r><a/><ghost must="1"><a/></ghost><b at="x"/></r>`,
			`<r><a/><b/><ghost/></r>`,
			`<r><ghost/></r>`,
		}},
		{"nondeterministic", `
<!ELEMENT r ((a, b) | (a, c))>
<!ELEMENT s (r*, a)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>`, []string{
			`<r><a/><b/></r>`,
			`<s><r><a/><c><b/></c></r><a/></s>`,
			`<s><r><x/></r><a/><a/></s>`,
		}},
	}
	// Children of an element with a nondeterministic model are still
	// checked against their own models (the nested violation here).
	nested := map[string]int{
		`<s><r><a/><c><b/></c></r><a/></s>`:      2,
		`<r><a/><c><d/></c></r>`:                 2,
		`<r><a/><c><d/><d/><d/><d/><e/></c></r>`: 2,
	}
	check := func(name string, m validate.Model, doc string) {
		t.Helper()
		errs := sameWithoutTables(t, m, doc)
		if n, ok := nested[doc]; ok && len(errs) != n {
			t.Errorf("%s: %q reports %v, want %d violations", name, doc, errs, n)
		}
	}
	for _, c := range dtds {
		d, err := dtd.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, doc := range c.docs {
			check(c.name, d.Model(), doc)
		}
	}

	// Standalone mode: each document's own internal subset is its model.
	for _, doc := range []string{
		`<!DOCTYPE note [<!ELEMENT note (to, body)><!ELEMENT to (#PCDATA)><!ELEMENT body (#PCDATA)>
<!ATTLIST note id ID #REQUIRED>]><note id="n"><to>x</to><body>y</body></note>`,
		`<!DOCTYPE note [<!ELEMENT note (to, body)><!ELEMENT to (#PCDATA)>]><note><body/><to>x</to></note>`,
		`<!DOCTYPE note [<!ELEMENT note (to+)><!ELEMENT to EMPTY>]><other><to/></other>`,
	} {
		d, err := dtd.DocumentDTD([]byte(doc), nil)
		if err != nil {
			t.Fatal(err)
		}
		sameWithoutTables(t, d.Model(), doc)
	}

	schemas := []struct {
		name, src string
		docs      []string
	}{
		{"catalog", catalogSchema, []string{
			"<catalog>" + product(2, "") + product(4, "<note>plain <em>x</em> text</note>") + "</catalog>",
			"<catalog>" + product(1, "") + "</catalog>",
			"<catalog>" + product(5, "") + "</catalog>",
			"<catalog></catalog>",
			"<catalog>" + product(2, "<bogus/>") + "</catalog>",
			"<catalog>" + product(2, "<bogus><sku/></bogus>") + product(3, "") + "</catalog>",
			"<wrong/>",
			"<catalog>" + strings.Replace(product(2, ""), "<sku>X</sku>", "<sku>X</sku>text", 1) + "</catalog>",
			"<catalog>" + strings.Replace(product(2, ""), "<sku>X</sku>", "<sku><sub/></sku>", 1) + "</catalog>",
			"<catalog>" + product(2, "") + "</catalog><catalog/>",
		}},
		{"all", `<schema xmlns="x"><element name="cfg"><complexType mixed="true"><all minOccurs="0">
  <element name="host" type="string"/>
  <element name="port" type="string" minOccurs="0"/>
</all></complexType></element></schema>`, []string{
			`<cfg><port>1</port><host>h</host></cfg>`,
			`<cfg>ok text</cfg>`,
			`<cfg><port>1</port></cfg>`,
			`<cfg><host>h</host><host>h</host></cfg>`,
			`<cfg><nope/></cfg>`,
		}},
		{"any", `<schema xmlns="x">
  <element name="r"><complexType><sequence>
    <element name="blob"/>
    <element name="any2" type="anyType"/>
  </sequence></complexType></element>
</schema>`, []string{
			`<r><blob>text <x><y/></x> more</blob><any2/></r>`,
			`<r><any2/><blob/></r>`,
		}},
		{"nondeterministic", `<schema xmlns="x"><element name="r"><complexType><choice>
  <sequence><element name="a" type="string"/><element name="b" type="string"/></sequence>
  <sequence><element name="a" type="string"/><element name="c"><complexType><sequence>
    <element name="d" type="string" minOccurs="2" maxOccurs="3"/>
  </sequence></complexType></element></sequence>
</choice></complexType></element></schema>`, []string{
			`<r><a/><c><d/><d/></c></r>`,
			`<r><a/><c><d/></c></r>`,
			`<r><a/><c><d/><d/><d/><d/><e/></c></r>`,
		}},
	}
	for _, c := range schemas {
		s, err := xsd.Parse([]byte(c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, doc := range c.docs {
			check(c.name, s.Model(), doc)
		}
	}
}
