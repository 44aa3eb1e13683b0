package validate

import (
	"cmp"
	"os"
	"runtime"
	"slices"

	"dregex/internal/pool"
)

// Doc is one in-memory document to validate.
type Doc struct {
	Name string
	Data []byte
}

// Result is the validation outcome for one document.
type Result struct {
	Name string
	// Errors are the schema violations found; empty for a valid document.
	Errors []Error
	// Err is a document-level failure: unreadable file, malformed XML, no
	// root element, or a document whose model could not be resolved.
	Err error
}

// Valid reports whether the document was read, parsed and validated with
// no violations.
func (r Result) Valid() bool { return r.Err == nil && len(r.Errors) == 0 }

// Validator validates many documents concurrently. The compiled models
// (and their lazily built engines) are shared by every worker — engines
// are immutable after construction — while all per-document state lives
// in a per-worker State reused from document to document. A Validator is
// safe for concurrent use and may be reused.
type Validator struct {
	model Model
	// resolve, when set, picks each document's model from its own bytes
	// (a DTD's standalone mode: the document's internal subset).
	resolve func(doc []byte) (Model, error)
	workers int
}

// NewValidator returns a pool validating against m with the given number
// of workers (≤ 0 selects GOMAXPROCS).
func NewValidator(m Model, workers int) *Validator {
	return &Validator{model: m, workers: workerCount(workers)}
}

// NewResolving returns a pool that validates each document against the
// model resolve returns for it; a resolve error is the document's Err.
func NewResolving(resolve func(doc []byte) (Model, error), workers int) *Validator {
	return &Validator{resolve: resolve, workers: workerCount(workers)}
}

func workerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ValidateDocs validates in-memory documents concurrently; results[i]
// corresponds to docs[i].
func (v *Validator) ValidateDocs(docs []Doc) []Result {
	results := make([]Result, len(docs))
	pool.RunWithStates(len(docs), v.workers, func(st *State, i int) {
		results[i] = v.validateDoc(docs[i].Name, docs[i].Data, st)
	})
	return results
}

// ValidateFiles reads and validates the named files concurrently (file
// I/O happens on the workers too); results[i] corresponds to paths[i].
// Workers take the files largest first, so the biggest documents do not
// start last and leave the other workers idle. With a fixed model each
// file is read straight into the worker's buffer, sized from the file's
// length and kept for the rest of the run — so a worker allocates it once,
// for its first and largest file; a resolving pool reads each file whole
// first, so the resolver can see it.
func (v *Validator) ValidateFiles(paths []string) []Result {
	results := make([]Result, len(paths))
	order := largestFirst(paths)
	pool.RunWithStates(len(paths), v.workers, func(st *State, j int) {
		i := order[j]
		results[i] = v.validateFile(paths[i], st)
	})
	return results
}

// largestFirst returns the indices of paths by decreasing file size; ties
// and unstattable paths (sized 0, reported by validateFile) keep their
// input order.
func largestFirst(paths []string) []int {
	sizes := make([]int64, len(paths))
	order := make([]int, len(paths))
	for i, p := range paths {
		order[i] = i
		if fi, err := os.Stat(p); err == nil {
			sizes[i] = fi.Size()
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	return order
}

func (v *Validator) validateFile(path string, st *State) Result {
	if v.resolve != nil {
		data, err := os.ReadFile(path)
		if err != nil {
			return Result{Name: path, Err: err}
		}
		return v.validateDoc(path, data, st)
	}
	f, err := os.Open(path)
	if err != nil {
		return Result{Name: path, Err: err}
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		st.reserve(fi.Size())
	}
	errs, err := st.validateReader(v.model, f)
	return Result{Name: path, Errors: errs, Err: err}
}

func (v *Validator) validateDoc(name string, data []byte, st *State) Result {
	m := v.model
	if v.resolve != nil {
		var err error
		if m, err = v.resolve(data); err != nil {
			return Result{Name: name, Err: err}
		}
	}
	errs, err := st.ValidateBytes(m, data)
	return Result{Name: name, Errors: errs, Err: err}
}
