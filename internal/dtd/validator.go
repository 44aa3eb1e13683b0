// Validation: a DTD compiles into a validate.Model, and the one validation
// pass in internal/validate does the rest. This file keeps the package's
// names for that pass and holds what only DTDs have: the DOCTYPE root
// check, global element lookup and <!ATTLIST> enforcement.
package dtd

import (
	"fmt"
	"io"
	"strings"

	"dregex"
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
	// Validator validates many documents concurrently against one DTD (or,
	// in standalone mode, against each document's own internal DTD
	// subset). A Validator is safe for concurrent use and may be reused.
	Validator = validate.Validator
	// DocState is the reusable per-worker scratch of a validation pass,
	// for long-running callers outside the package (the dregexd server
	// pools these per schema). A zero value is ready.
	DocState = validate.State
)

// NewValidator returns a pool validating against d with the given number
// of workers (≤ 0 selects GOMAXPROCS).
func NewValidator(d *DTD, workers int) *Validator {
	return validate.NewValidator(d.Model(), workers)
}

// NewStandaloneValidator returns a pool that validates each document
// against the internal DTD subset of its own DOCTYPE. Content models
// compile through cache (nil selects the shared package cache), so models
// repeated across the corpus — the common case in the wild — compile once
// however many documents carry them.
func NewStandaloneValidator(cache *dregex.Cache, workers int) *Validator {
	return validate.NewResolving(func(doc []byte) (validate.Model, error) {
		d, err := DocumentDTD(doc, cache)
		if err != nil {
			return nil, err
		}
		return d.Model(), nil
	}, workers)
}

// Validate checks an XML document against the DTD: it must have one root
// element, every element must be declared, its children sequence must
// match its content model (evaluated with a streaming simulator — one
// pass, no buffering of child lists), text content must be allowed, and
// attributes must conform to the element's <!ATTLIST> declarations
// (types, required/fixed constraints, document-wide ID uniqueness and
// IDREF resolution). When the document carries a <!DOCTYPE> declaration,
// the root element must match its name. It returns all violations found,
// or nil.
func (d *DTD) Validate(r io.Reader) ([]ValidationError, error) {
	var st DocState
	return st.Validate(d.Model(), r)
}

// ValidateBytes is Validate on an in-memory document, skipping the read.
func (d *DTD) ValidateBytes(doc []byte) ([]ValidationError, error) {
	var st DocState
	return st.ValidateBytes(d.Model(), doc)
}

// ValidateReusing is Validate with caller-managed scratch: reusing one
// DocState across documents keeps every internal buffer, so steady-state
// validation performs no per-document allocation.
func (d *DTD) ValidateReusing(r io.Reader, st *DocState) ([]ValidationError, error) {
	return st.Validate(d.Model(), r)
}

// ValidateBytesReusing is ValidateBytes with caller-managed scratch.
func (d *DTD) ValidateBytesReusing(doc []byte, st *DocState) ([]ValidationError, error) {
	return st.ValidateBytes(d.Model(), doc)
}

// Model returns the DTD as the validation pass consults it.
func (d *DTD) Model() validate.Model { return model{d} }

// model implements validate.Model for a DTD.
type model struct{ d *DTD }

func (m model) Entities() map[string]string { return m.d.Entities }

// Doctype takes the root name a DOCTYPE declares; a document may also
// declare its own entities in the internal subset (common when validating
// against an external DTD) — see docEntities for the precedence and skip
// rules.
func (m model) Doctype(directive string) (string, map[string]string) {
	name, ok := doctypeName(directive)
	if !ok {
		return "", nil
	}
	return name, m.d.docEntities(directive)
}

// Root admits any declared element, provided it matches the DOCTYPE.
func (m model) Root(s *validate.State, name []byte, doctype string) *validate.Content {
	if doctype != "" && string(name) != doctype {
		s.Violation(name, s.Tokenizer().Offset(),
			fmt.Sprintf("root element <%s> does not match DOCTYPE %s", name, doctype))
	}
	return m.Child(s, nil, name)
}

// Child looks name up among the DTD's (global) element declarations.
func (m model) Child(s *validate.State, _ *validate.Content, name []byte) *validate.Content {
	el := m.d.Elements[string(name)]
	if el == nil {
		s.Violation(name, s.Tokenizer().Offset(), "element not declared")
		return nil
	}
	return &el.content
}

// Attrs validates the current start tag's attributes against the
// element's attribute list: every attribute must be declared and satisfy
// its type and #FIXED constraints, required attributes must be present,
// ID values must be unique document-wide, and IDREF/IDREFS values
// (including defaulted ones) are queued for document-end resolution.
func (m model) Attrs(s *validate.State, c *validate.Content, name []byte) {
	al := m.d.Attlists[string(name)]
	if c == nil && al == nil {
		return // element undeclared: already reported, nothing to check against
	}
	tok := s.Tokenizer()
	off := tok.Offset()
	nattr := tok.AttrCount()
	for i := 0; i < nattr; i++ {
		aname := tok.AttrName(i)
		if isXmlnsAttr(aname) {
			continue
		}
		var def *AttDef
		if al != nil {
			def = al.defBytes(aname)
		}
		aoff := tok.AttrNameOffset(i)
		if def == nil {
			s.Violation(name, aoff, fmt.Sprintf("attribute %s not declared", aname))
			continue
		}
		val := tok.AttrValue(i)
		if msg := def.checkValue(val); msg != "" {
			s.Violation(name, aoff, fmt.Sprintf("attribute %s: %s", aname, msg))
			continue
		}
		switch def.Type {
		case AttID:
			if id := attTrim(val); !s.DeclareID(id) {
				s.Violation(name, aoff, fmt.Sprintf("ID %q already used in this document", id))
			}
		case AttIDREF:
			s.Ref(attTrim(val), aoff, name)
		case AttIDREFS:
			eachField(val, func(f []byte) bool {
				s.Ref(f, aoff, name)
				return true
			})
		}
	}
	if al == nil {
		return
	}
	for _, req := range al.required {
		found := false
		for i := 0; i < nattr; i++ {
			if string(tok.AttrName(i)) == req.Name {
				found = true
				break
			}
		}
		if !found {
			s.Violation(name, off, fmt.Sprintf("required attribute %s missing", req.Name))
		}
	}
	// Defaulted IDREF/IDREFS values join the document's reference graph
	// even when the attribute is absent.
	for _, def := range al.refDefaults {
		present := false
		for i := 0; i < nattr; i++ {
			if string(tok.AttrName(i)) == def.Name {
				present = true
				break
			}
		}
		if present {
			continue
		}
		if def.Type == AttIDREF {
			s.RefString(strings.TrimSpace(def.Value), off, name)
		} else {
			for _, f := range strings.Fields(def.Value) {
				s.RefString(f, off, name)
			}
		}
	}
}

// isXmlnsAttr reports whether name declares a namespace (xmlns or
// xmlns:prefix) — namespace declarations are not subject to ATTLIST
// validation.
func isXmlnsAttr(name []byte) bool {
	return len(name) >= 5 && string(name[:5]) == "xmlns" &&
		(len(name) == 5 || name[5] == ':')
}
