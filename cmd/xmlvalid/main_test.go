package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runQuiet runs the CLI with stdout captured (reports go to real stdout
// via cli.Report).
func runQuiet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		b.ReadFrom(r)
		done <- b.String()
	}()
	var stderr bytes.Buffer
	code := run(args, &stderr)
	w.Close()
	os.Stdout = saved
	return code, <-done + stderr.String()
}

// CLI-level regression for the entity and BOM fixes together: a
// BOM-prefixed standalone document whose internal subset declares and
// references a general entity must validate (it used to fail as
// "malformed XML" / misreported positions).
func TestXmlvalidEntityBOMFile(t *testing.T) {
	dir := t.TempDir()
	doc := "\uFEFF" + `<?xml version="1.0"?>
<!DOCTYPE note [
  <!ELEMENT note (to, body)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
  <!ENTITY who "Alice">
]>
<note><to>&who;</to><body>hi &amp; bye</body></note>`
	path := filepath.Join(dir, "note.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out := runQuiet(t, path)
	if code != 0 {
		t.Errorf("exit = %d, want 0; output:\n%s", code, out)
	}

	// And the inverse: an undeclared entity still fails.
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte(`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>&nope;</a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runQuiet(t, bad)
	if code != 1 {
		t.Errorf("undeclared entity: exit = %d, want 1; output:\n%s", code, out)
	}
}

// A BOM-prefixed external DTD works through -dtd mode too.
func TestXmlvalidBOMExternalDTD(t *testing.T) {
	dir := t.TempDir()
	dtdPath := filepath.Join(dir, "s.dtd")
	if err := os.WriteFile(dtdPath, []byte("\uFEFF<!ELEMENT a (#PCDATA)>\n<!ENTITY e \"x\">"), 0o644); err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(dir, "d.xml")
	if err := os.WriteFile(docPath, []byte(`<a>&e;</a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runQuiet(t, "-dtd", dtdPath, docPath)
	if code != 0 {
		t.Errorf("exit = %d, want 0; output:\n%s", code, out)
	}
}

// Positions in CLI reports are rune-accurate: multi-byte UTF-8 text and a
// leading BOM must not skew the printed line:col (encoding/xml's offsets
// used to; the xmltok path counts runes and strips the BOM).
func TestXmlvalidPositionMultibyteBOM(t *testing.T) {
	dir := t.TempDir()
	doc := "\uFEFF" + `<!DOCTYPE r [
  <!ELEMENT r (#PCDATA | a)*>
  <!ELEMENT a EMPTY>
]>
<r>héllo wörld <b/></r>`
	path := filepath.Join(dir, "pos.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runQuiet(t, path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	// "<r>héllo wörld " puts <b/> at rune column 16 of line 5 (byte
	// column 18 — the wrong answer).
	if !bytes.Contains([]byte(out), []byte("5:16:")) {
		t.Errorf("report lacks rune-accurate position 5:16:\n%s", out)
	}
}

// Content-model violations carry expected-next hints, in both report
// forms: the JSON "expected" array and the text "(expected one of: …)"
// suffix. The hints come from probing the failed run's last viable state,
// so they name exactly the elements that would have been legal.
func TestXmlvalidExpectedHints(t *testing.T) {
	dir := t.TempDir()
	doc := `<!DOCTYPE book [
  <!ELEMENT book (title, author+, (section | appendix)*)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT section (#PCDATA)>
  <!ELEMENT appendix (#PCDATA)>
]>
<book><title>t</title><section>s</section></book>`
	path := filepath.Join(dir, "book.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out := runQuiet(t, path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !bytes.Contains([]byte(out), []byte("(expected one of: author)")) {
		t.Errorf("text report lacks expected-next hint:\n%s", out)
	}

	code, out = runQuiet(t, "-json", path)
	if code != 1 {
		t.Fatalf("json: exit = %d, want 1; output:\n%s", code, out)
	}
	var reports []map[string]any
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("json report does not parse: %v\n%s", err, out)
	}
	errs := reports[0]["errors"].([]any)
	first := errs[0].(map[string]any)
	if got, _ := first["expected"].([]any); len(got) != 1 || got[0] != "author" {
		t.Errorf("json expected field = %v, want [author]; full error: %v", got, first)
	}
}

// TestXmlvalidReportOrderMixedSizes checks that the -json report lists a
// directory's documents in walk order, however the workers schedule them
// (largest first): sizes here rise and fall against the name order.
func TestXmlvalidReportOrderMixedSizes(t *testing.T) {
	dir := t.TempDir()
	dtdPath := filepath.Join(dir, "list.dtd")
	if err := os.WriteFile(dtdPath, []byte("<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA)>"), 0o644); err != nil {
		t.Fatal(err)
	}
	docs := filepath.Join(dir, "docs")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, n := range []int{3, 4000, 1, 900, 20000, 0, 50, 7000} {
		doc := "<r>" + strings.Repeat("<a>x</a>", n) + "</r>"
		if i == 3 {
			doc = "<r><b/></r>" // the one invalid document
		}
		path := filepath.Join(docs, fmt.Sprintf("d%02d.xml", i))
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		want = append(want, path)
	}
	for _, workers := range []string{"1", "2", "3"} {
		code, out := runQuiet(t, "-dtd", dtdPath, "-workers", workers, "-json", docs)
		if code != 1 {
			t.Fatalf("workers %s: exit = %d, want 1; output:\n%s", workers, code, out)
		}
		var reports []struct {
			Path  string `json:"path"`
			Valid bool   `json:"valid"`
		}
		if err := json.Unmarshal([]byte(out), &reports); err != nil {
			t.Fatalf("workers %s: json report does not parse: %v\n%s", workers, err, out)
		}
		if len(reports) != len(want) {
			t.Fatalf("workers %s: %d reports, want %d", workers, len(reports), len(want))
		}
		for i, r := range reports {
			if r.Path != want[i] || r.Valid != (i != 3) {
				t.Errorf("workers %s: report %d = %s valid=%v, want %s valid=%v",
					workers, i, r.Path, r.Valid, want[i], i != 3)
			}
		}
	}
}
