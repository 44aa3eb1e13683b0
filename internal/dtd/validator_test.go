package dtd

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dregex"
)

func corpusDocs(n int) []Doc {
	docs := make([]Doc, n)
	for i := range docs {
		var b strings.Builder
		b.WriteString("<book isbn=\"b-7\">\n  <title>T</title>\n")
		for a := 0; a <= i%3; a++ {
			fmt.Fprintf(&b, "  <author>A%d</author>\n", a)
		}
		b.WriteString("  <chapter><title>C</title><para>x <em>y</em></para></chapter>\n")
		if i%7 == 0 {
			// invalid: figure is EMPTY but gets a child
			b.WriteString("  <chapter><title>C2</title><figure><em>z</em></figure></chapter>\n")
		}
		if i%5 == 0 {
			b.WriteString("  <appendix><title>Ap</title><para>p</para></appendix>\n")
		}
		b.WriteString("</book>")
		docs[i] = Doc{Name: fmt.Sprintf("doc-%03d.xml", i), Data: []byte(b.String())}
	}
	return docs
}

// TestValidatorConcurrentCorpus hammers one DTD's shared engines from many
// workers (run under -race by make test / CI) and checks every verdict
// against the sequential Validate path.
func TestValidatorConcurrentCorpus(t *testing.T) {
	d, err := Parse(bookDTD)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpusDocs(120)
	results := NewValidator(d, 8).ValidateDocs(docs)
	if len(results) != len(docs) {
		t.Fatalf("got %d results for %d docs", len(results), len(docs))
	}
	for i, r := range results {
		if r.Name != docs[i].Name {
			t.Fatalf("result %d is %q, want %q (order lost)", i, r.Name, docs[i].Name)
		}
		wantErrs, err := d.Validate(strings.NewReader(string(docs[i].Data)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			t.Fatalf("%s: unexpected document error %v", r.Name, r.Err)
		}
		if len(r.Errors) != len(wantErrs) {
			t.Errorf("%s: %d errors concurrent vs %d sequential", r.Name, len(r.Errors), len(wantErrs))
		}
		if wantValid := len(wantErrs) == 0; r.Valid() != wantValid {
			t.Errorf("%s: Valid() = %v, want %v", r.Name, r.Valid(), wantValid)
		}
	}
	// The corpus plants an invalid chapter in every 7th document.
	for i, r := range results {
		if (i%7 == 0) == r.Valid() {
			t.Errorf("%s: Valid() = %v, want %v", r.Name, r.Valid(), i%7 != 0)
		}
	}
}

// TestStandaloneValidator validates documents that carry their own
// internal subsets; the shared cache compiles each distinct model once
// across the whole corpus.
func TestStandaloneValidator(t *testing.T) {
	cache := dregex.NewCache(256)
	mkdoc := func(name, body string) Doc {
		doc := `<!DOCTYPE note [
  <!ELEMENT note (to+, body?)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
]>
` + body
		return Doc{Name: name, Data: []byte(doc)}
	}
	docs := []Doc{
		mkdoc("ok.xml", `<note><to>a</to><to>b</to><body>t</body></note>`),
		mkdoc("bad.xml", `<note><body>t</body></note>`),
		{Name: "nodoctype.xml", Data: []byte(`<x/>`)},
		mkdoc("rootmismatch.xml", `<memo><to>a</to></memo>`),
	}
	results := NewStandaloneValidator(cache, 4).ValidateDocs(docs)
	if !results[0].Valid() {
		t.Errorf("ok.xml invalid: %v %v", results[0].Errors, results[0].Err)
	}
	if results[1].Valid() || len(results[1].Errors) == 0 {
		t.Errorf("bad.xml not flagged: %+v", results[1])
	}
	if results[2].Err == nil {
		t.Error("nodoctype.xml: missing DOCTYPE not reported")
	}
	found := false
	for _, e := range results[3].Errors {
		if strings.Contains(e.Msg, "does not match DOCTYPE") {
			found = true
		}
	}
	if !found {
		t.Errorf("rootmismatch.xml: no DOCTYPE mismatch in %v", results[3].Errors)
	}
	// Three documents share one subset: its models must have compiled once
	// each (misses = number of distinct children models, not 3× that).
	if st := cache.Stats(); st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one distinct children model)", st.Misses)
	}
}

func TestValidatorFiles(t *testing.T) {
	d, err := Parse(bookDTD)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	docs := corpusDocs(10)
	paths := make([]string, 0, len(docs)+1)
	for _, doc := range docs {
		p := filepath.Join(dir, doc.Name)
		if err := os.WriteFile(p, doc.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	paths = append(paths, filepath.Join(dir, "missing.xml"))
	results := NewValidator(d, 4).ValidateFiles(paths)
	for i := range docs {
		if results[i].Err != nil {
			t.Errorf("%s: %v", paths[i], results[i].Err)
		}
	}
	if last := results[len(results)-1]; last.Err == nil {
		t.Error("missing file not reported")
	}
}

// TestValidateRootCount: a document has exactly one root element, with or
// without a DOCTYPE — a second top-level element is reported, and a
// document with none (empty, or only a comment) is a document-level error.
func TestValidateRootCount(t *testing.T) {
	d, err := Parse("<!ELEMENT a EMPTY>")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"<a/><a/>", "<!DOCTYPE a><a/><a/>"} {
		errs, err := d.ValidateBytes([]byte(doc))
		if err != nil || len(errs) != 1 || !strings.Contains(errs[0].Msg, "more than one root") {
			t.Errorf("%q: errs=%v err=%v, want one more-than-one-root error", doc, errs, err)
		}
	}
	for _, doc := range []string{"", "<!-- c -->"} {
		if _, err := d.ValidateBytes([]byte(doc)); err == nil || !strings.Contains(err.Error(), "no root element") {
			t.Errorf("%q: err = %v, want no root element", doc, err)
		}
	}
}
