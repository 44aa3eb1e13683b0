package validate_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dregex/internal/dtd"
	"dregex/internal/validate"
)

// TestValidateFilesSizedRead checks that a document read from a file is
// read into one buffer sized from the file, not a chain of regrown ones:
// validating a 2 MiB file allocates little more than 2 MiB in all.
func TestValidateFilesSizedRead(t *testing.T) {
	d, err := dtd.Parse("<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA)>")
	if err != nil {
		t.Fatal(err)
	}
	const size = 2 << 20
	item := "<a>0123456789abcdef</a>\n"
	doc := "<r>\n" + strings.Repeat(item, (size-16)/len(item)) + "</r>"
	doc += strings.Repeat(" ", size-len(doc))
	path := filepath.Join(t.TempDir(), "big.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	v := dtd.NewValidator(d, 1)
	if r := v.ValidateFiles([]string{path})[0]; !r.Valid() {
		t.Fatalf("document rejected: %v %v", r.Errors, r.Err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := v.ValidateFiles([]string{path})[0]
	runtime.ReadMemStats(&after)
	if !r.Valid() {
		t.Fatalf("document rejected: %v %v", r.Errors, r.Err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > size+size/8 {
		t.Errorf("validating a %d-byte file allocated %d bytes, want one read buffer (≤ %d)", size, got, size+size/8)
	}
}

// TestValidateFilesLargestFirst checks the dispatch order: one worker
// takes the files by decreasing size, while results keep input order.
func TestValidateFilesLargestFirst(t *testing.T) {
	d, err := dtd.Parse("<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i, n := range []int{2, 30, 0, 500, 7, 30} {
		path := filepath.Join(dir, fmt.Sprintf("d%d.xml", i))
		if err := os.WriteFile(path, []byte("<r>"+strings.Repeat("<a/>", n)+"</r>"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	paths = append(paths, filepath.Join(dir, "missing.xml"))
	var seen []int
	v := validate.NewResolving(func(doc []byte) (validate.Model, error) {
		seen = append(seen, len(doc))
		return d.Model(), nil
	}, 1)
	results := v.ValidateFiles(paths)
	if want := []int{2007, 127, 127, 35, 15, 7}; !reflect.DeepEqual(seen, want) {
		t.Errorf("documents taken in sizes %v, want %v", seen, want)
	}
	for i, r := range results {
		if r.Name != paths[i] || (r.Err == nil) != (i < len(paths)-1) {
			t.Errorf("result %d = %s (err %v), want %s", i, r.Name, r.Err, paths[i])
		}
	}
}
