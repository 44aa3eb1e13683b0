// Instance validation: a schema compiles into a validate.Model, and the
// one validation pass in internal/validate does the rest. This file keeps
// the package's names for that pass and the lookups only schemas have:
// global root declarations and child declarations scoped to their parent's
// type.
package xsd

import (
	"io"

	"dregex/internal/dtd"
	"dregex/internal/validate"
)

type (
	// ValidationError describes one violation found while validating a
	// document.
	ValidationError = validate.Error
	// Doc is one in-memory document to validate.
	Doc = validate.Doc
	// Result is the validation outcome for one document.
	Result = validate.Result
	// Validator validates many documents concurrently against one schema.
	// A Validator is safe for concurrent use and may be reused.
	Validator = validate.Validator
	// DocState is the reusable per-worker scratch of a validation pass,
	// for long-running callers outside the package (the dregexd server
	// pools these per schema). A zero value is ready.
	DocState = validate.State
)

// NewValidator returns a pool validating against s with the given number
// of workers (≤ 0 selects GOMAXPROCS).
func NewValidator(s *Schema, workers int) *Validator {
	return validate.NewValidator(s.Model(), workers)
}

// Validate checks one XML document against the schema: the root must be a
// globally declared element, every element's children sequence must match
// its type's content model (evaluated with a streaming simulator — one
// pass, no buffering of child lists), xs:all members must each appear at
// most once with required ones present, and text content must be allowed
// (simple or mixed content). It returns all violations found, or nil.
func (s *Schema) Validate(r io.Reader) ([]ValidationError, error) {
	var st DocState
	return st.Validate(s.Model(), r)
}

// ValidateBytes is Validate on an in-memory document, skipping the read.
func (s *Schema) ValidateBytes(doc []byte) ([]ValidationError, error) {
	var st DocState
	return st.ValidateBytes(s.Model(), doc)
}

// ValidateReusing is Validate with caller-managed scratch: reusing one
// DocState across documents keeps the element stack's capacity and every
// frame's grown stream buffers. A DocState must not be used concurrently.
func (s *Schema) ValidateReusing(r io.Reader, st *DocState) ([]ValidationError, error) {
	return st.Validate(s.Model(), r)
}

// ValidateBytesReusing is ValidateBytes with caller-managed scratch.
func (s *Schema) ValidateBytesReusing(doc []byte, st *DocState) ([]ValidationError, error) {
	return st.ValidateBytes(s.Model(), doc)
}

// Model returns the schema as the validation pass consults it.
func (s *Schema) Model() validate.Model { return model{s} }

// model implements validate.Model for a schema.
type model struct{ s *Schema }

func (model) Entities() map[string]string { return nil }

// Doctype wires the general entities an instance document's DOCTYPE
// declares (<!ENTITY foo "...">) into the tokenizer, so &foo; references
// resolve rather than fail as malformed XML. Predefined entities always
// work; parameter and external entities stay out of scope. The root name
// is not checked: the schema's global elements decide the root.
func (model) Doctype(directive string) (string, map[string]string) {
	return "", dtd.EntitiesFromDoctype(directive)
}

// Root admits the schema's global element declarations.
func (m model) Root(st *validate.State, name []byte, _ string) *validate.Content {
	decl := m.s.Roots[string(name)]
	if decl == nil {
		st.Violation(name, st.Tokenizer().Offset(), "root element is not declared in the schema")
		return nil
	}
	return &decl.Type.content
}

// Child looks name up among the declarations local to the parent's type:
// the name map of an xs:all or nondeterministic type, or the child table
// of a deterministic one. An undeclared child is already a violation of
// the parent's model.
func (model) Child(_ *validate.State, parent *validate.Content, name []byte) *validate.Content {
	if parent == nil {
		return nil
	}
	if parent.Local != nil {
		return parent.Local[string(name)]
	}
	return parent.Kid(name)
}

// Attrs accepts every attribute: schemas' attribute declarations are not
// enforced.
func (model) Attrs(*validate.State, *validate.Content, []byte) {}
