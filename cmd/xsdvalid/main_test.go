package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

const testXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" minOccurs="2" maxOccurs="3"/>
        <xs:element name="total"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="item"/>
  <xs:element name="total"/>
</xs:schema>`

// Counter-engine validation failures carry expected-next hints too: one
// item is too few, so at </order> the only legal continuation is a second
// item — reported in the text suffix and the JSON "expected" array.
func TestXsdvalidExpectedHints(t *testing.T) {
	dir := t.TempDir()
	xsdPath := filepath.Join(dir, "order.xsd")
	if err := os.WriteFile(xsdPath, []byte(testXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(dir, "order.xml")
	if err := os.WriteFile(docPath, []byte(`<order><item/><total/></order>`), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out := runQuiet(t, "-xsd", xsdPath, docPath)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !bytes.Contains([]byte(out), []byte("(expected one of: item)")) {
		t.Errorf("text report lacks expected-next hint:\n%s", out)
	}

	code, out = runQuiet(t, "-json", "-xsd", xsdPath, docPath)
	if code != 1 {
		t.Fatalf("json: exit = %d, want 1; output:\n%s", code, out)
	}
	var reports []map[string]any
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("json report does not parse: %v\n%s", err, out)
	}
	errs := reports[0]["errors"].([]any)
	first := errs[0].(map[string]any)
	if got, _ := first["expected"].([]any); len(got) != 1 || got[0] != "item" {
		t.Errorf("json expected field = %v, want [item]; full error: %v", got, first)
	}

	// A valid document still exits 0 through the refactored run().
	goodPath := filepath.Join(dir, "good.xml")
	if err := os.WriteFile(goodPath, []byte(`<order><item/><item/><total/></order>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runQuiet(t, "-q", "-xsd", xsdPath, goodPath); code != 0 {
		t.Fatalf("valid doc: exit = %d; output:\n%s", code, out)
	}
}
