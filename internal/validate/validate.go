// Package validate is the one validation pass behind the DTD and XSD front
// ends: a single streaming walk over an XML document that checks every
// element's children against its content model with O(1) state per open
// element, the setting of the paper's §1 and §4. Determinism is decided
// once per schema, when a front end compiles it into a Model; each
// document then costs tokenizing plus one stream step per child element.
//
// A Model answers the schema-specific questions — which content the root
// and each child element have, and whether a start tag's attributes
// conform — while the pass itself steps the Content it is handed: frames
// hold concrete match.Stream / numeric.Stream values, so feeding a child
// costs no interface call. Front ends link every deterministic Children
// content to a child table indexed by its model's symbols (Content.Link),
// so a start tag under such a parent costs one alphabet probe: the symbol
// both steps the parent's stream and names the child's content. Model.Child
// is consulted only for the root, for children of other parents and for
// names the table lacks, and Model.Attrs only when the tag has attributes
// or the element's attribute rules apply without any (Content.AttrRules).
// Per-document scratch lives in a reusable State whose frame stack,
// tokenizer and read buffer survive from document to document, so
// steady-state validation allocates nothing on the matching path.
package validate

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"dregex"
	"dregex/internal/ast"
	"dregex/internal/match"
	"dregex/internal/numeric"
	"dregex/internal/run"
	"dregex/internal/xmltok"
)

// Error describes one violation found while validating a document.
type Error struct {
	Path    string `json:"path"` // slash-separated element path
	Element string `json:"element"`
	Msg     string `json:"msg"`
	// Line and Col locate the violation in the document (1-based; columns
	// count runes). Zero when no position is available.
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Expected lists the element names that would have been legal at the
	// failure point (content-model violations only): the run.Runner
	// ExpectedNext set of the element's streaming matcher.
	Expected []string `json:"expected,omitempty"`
}

func (e Error) Error() string {
	msg := e.Msg
	if len(e.Expected) > 0 {
		msg = fmt.Sprintf("%s (expected one of: %s)", msg, strings.Join(e.Expected, ", "))
	}
	if e.Line > 0 {
		return fmt.Sprintf("%d:%d: %s: <%s>: %s", e.Line, e.Col, e.Path, e.Element, msg)
	}
	return fmt.Sprintf("%s: <%s>: %s", e.Path, e.Element, msg)
}

// Kind classifies what an element's content admits.
type Kind uint8

// Content kinds.
const (
	// Empty admits no children.
	Empty Kind = iota
	// Simple admits no children: XSD simple content.
	Simple
	// Any admits any children, unchecked.
	Any
	// Mixed admits the Allowed names in any order and number: DTD mixed
	// content.
	Mixed
	// All admits each member at most once, in any order: xs:all.
	All
	// Children admits the child sequences of a regular content model.
	Children
)

// Content is one compiled content model, in the form the pass steps it.
// Front ends build one per element declaration (DTD) or type (XSD) when
// they compile a schema; it is immutable afterwards.
type Content struct {
	// The fields the pass reads on every start tag come first, so they
	// share a cache line.
	Kind Kind
	// Text reports whether non-whitespace character data is allowed.
	Text bool
	// AttrRules reports that the element's attribute rules have work even
	// on a start tag without attributes (a required attribute, or a
	// defaulted IDREF); without it the pass skips Model.Attrs on such tags.
	AttrRules bool

	// Children: the shared streaming matcher of a deterministic model —
	// Matcher for plain models, Counter for counted ones. Both nil marks a
	// nondeterministic model, whose elements cannot be validated.
	Matcher *dregex.Matcher
	Counter *dregex.NumericMatcher
	// Kids is the child table of a linked Children content (see Link):
	// Kids[a] is the content of the child named by symbol a of the model's
	// alphabet alpha, nil where Model.Child decides. Nil until linked.
	Kids  []*Content
	alpha *ast.Alphabet

	// Model is the content-model text that violations quote.
	Model string

	// Mixed: the element names allowed among the text.
	Allowed map[string]bool

	// All: member i is Names[i], looked up through Members; it must appear
	// when Required[i] holds, unless Optional and no member appears.
	Members  map[string]int
	Names    []string
	Required []bool
	Optional bool
	// Local maps child names to their content where declarations are
	// scoped to a parent that has no child table (XSD local elements of an
	// xs:all or nondeterministic type); nil elsewhere.
	Local map[string]*Content
}

// Link builds the child table of a deterministic Children content: kid
// returns the content of the child element with the given name, or nil to
// leave that name to Model.Child. It costs one kid call per symbol of the
// model's alphabet; other contents are left unlinked. Front ends link each
// content once, after their whole schema has compiled.
func (c *Content) Link(kid func(name string) *Content) {
	if c.Kind != Children {
		return
	}
	switch {
	case c.Counter != nil:
		c.alpha = c.Counter.Alphabet()
	case c.Matcher != nil:
		c.alpha = c.Matcher.Alphabet()
	default:
		return // nondeterministic: its elements are never stepped
	}
	c.Kids = make([]*Content, c.alpha.Size())
	for a := ast.FirstUser; int(a) < len(c.Kids); a++ {
		c.Kids[a] = kid(c.alpha.Name(a))
	}
}

// Kid returns the content the child table holds for name: nil when c is
// unlinked, name is outside the model's alphabet, or Link left it to
// Model.Child.
func (c *Content) Kid(name []byte) *Content {
	if c.Kids == nil {
		return nil
	}
	if a, ok := run.LookupBytes(c.alpha, name); ok {
		return c.Kids[a]
	}
	return nil
}

// Model is a compiled schema as the pass consults it. Implementations are
// immutable and safe for concurrent use; they report violations through
// State.Violation, and the pass reports the rest itself.
type Model interface {
	// Entities returns the general entities a document's references
	// resolve against before any DOCTYPE (nil: predefined entities only).
	Entities() map[string]string
	// Doctype reads a DOCTYPE directive met before the root element: the
	// root name it declares ("" when the model does not check it), and the
	// entities to resolve against from then on (nil keeps the current set).
	Doctype(directive string) (root string, ents map[string]string)
	// Root returns the content of the root element name, given the
	// DOCTYPE's root name ("" without one); nil marks it undeclared.
	Root(s *State, name []byte, doctype string) *Content
	// Child returns the content of element name inside parent (nil when
	// the parent is undeclared); nil marks it undeclared. It is the
	// fallback path: the pass consults it only where the parent's child
	// table (Content.Kids) has no entry — parents that are not linked
	// Children contents, and names the table lacks.
	Child(s *State, parent *Content, name []byte) *Content
	// Attrs checks the attributes of the current start tag, of element
	// name with content c (nil when undeclared). The pass skips it on a
	// declared element's tag without attributes unless c.AttrRules is set.
	Attrs(s *State, c *Content, name []byte)
}

// frame is the per-open-element state of a validation pass. The name
// aliases the document buffer — no per-element string is materialized.
type frame struct {
	c      *Content
	name   []byte
	stream match.Stream   // plain Children models (value: no allocation)
	ctrs   numeric.Stream // counted Children models (buffers reused per slot)
	seen   []bool         // All: member presence (reused per slot)
	any    bool           // All: some member seen
	failed bool
}

// pendingRef is one IDREF occurrence awaiting document-end resolution
// (IDs may be declared after the references pointing at them). The value
// lives in State.refArena — attribute values can sit in tokenizer scratch
// that the next token invalidates — and elem aliases the document buffer.
type pendingRef struct {
	lo, hi int // value span in refArena
	off    int // byte offset of the referencing attribute
	elem   []byte
}

// maxKeepBuf caps the document buffer a reused State retains between
// documents, so one huge outlier does not pin its memory forever.
const maxKeepBuf = 1 << 20

// State is the reusable scratch of one validation pass. A zero value is
// ready; reusing one across documents (one per worker, or pooled per
// schema by a server) keeps the element stack, every frame's grown stream
// buffers, the tokenizer's internal buffers and the read buffer, so
// steady-state validation performs no per-document allocation. A State
// must not be used concurrently. Popped frames keep the counter streams of
// the schema they last validated, so pool States per schema.
type State struct {
	stack []frame
	tok   xmltok.Tokenizer
	// buf holds the whole document when validating from an io.Reader.
	buf  []byte
	errs []Error
	// ids collects the document's ID attribute values; refs/refArena the
	// IDREF occurrences to resolve once the document has been read.
	ids      map[string]struct{}
	refs     []pendingRef
	refArena []byte
	// symbols and docBytes meter the last validation for observability.
	// Plain ints — bumping them costs nothing on the 0-alloc hot path;
	// callers aggregate them into shared counters.
	symbols  int
	docBytes int
	// cp is the cooperative cancellation point probed once per token; it
	// stays disarmed (one branch per token) unless SetDeadline armed it.
	cp run.Checkpoint
	// plain makes the pass resolve every child through Model.Child and
	// check every start tag through Model.Attrs, ignoring child tables and
	// AttrRules (a test switch: their differential oracle).
	plain bool
}

// Symbols reports how many content-model symbols (child elements fed to
// the streaming engines) the last validation through this State consumed
// — the |w| of the paper's O(|e| + |w|·f) bound, for live ns-per-symbol
// estimates.
func (s *State) Symbols() int { return s.symbols }

// DocBytes reports the size of the last document validated through this
// State (the bytes the tokenizer scanned).
func (s *State) DocBytes() int { return s.docBytes }

// SetDeadline arms cooperative cancellation for subsequent validations
// through this State: the token loop aborts with an error satisfying
// errors.Is(err, run.ErrCanceled) once done closes, or
// run.ErrDeadlineExceeded once the absolute deadline passes. Both zero
// arguments disarm, which is also the zero State's behavior — the disarmed
// per-token cost is a single branch, so the 0-alloc validation path is
// undisturbed. The arming persists across documents until the next
// SetDeadline, so per-request callers must re-arm (or disarm) each time
// they check a state out of a pool.
func (s *State) SetDeadline(done <-chan struct{}, deadline time.Time) {
	s.cp.Arm(done, deadline)
}

// Tokenizer returns the tokenizer positioned on the current token, for
// Model.Attrs.
func (s *State) Tokenizer() *xmltok.Tokenizer { return &s.tok }

// Violation reports that the current start tag, of element name, breaks
// the schema at document offset off.
func (s *State) Violation(name []byte, off int, msg string) {
	s.report(s.path()+"/"+string(name), name, off, msg)
}

// DeclareID records an ID attribute value, reporting false when the
// document already used it.
func (s *State) DeclareID(id []byte) bool {
	if _, dup := s.ids[string(id)]; dup {
		return false
	}
	if s.ids == nil {
		s.ids = map[string]struct{}{}
	}
	s.ids[string(id)] = struct{}{}
	return true
}

// Ref queues an IDREF value of element elem, at document offset off, for
// resolution against the document's IDs once it has been read.
func (s *State) Ref(val []byte, off int, elem []byte) {
	lo := len(s.refArena)
	s.refArena = append(s.refArena, val...)
	s.refs = append(s.refs, pendingRef{lo, len(s.refArena), off, elem})
}

// RefString is Ref for a value from the schema (a defaulted IDREF).
func (s *State) RefString(val string, off int, elem []byte) {
	lo := len(s.refArena)
	s.refArena = append(s.refArena, val...)
	s.refs = append(s.refs, pendingRef{lo, len(s.refArena), off, elem})
}

// Validate checks the document read from r against m and returns all
// violations found, or nil; the error is a document-level failure
// (unreadable input, malformed XML, no root element, an aborted run).
func (s *State) Validate(m Model, r io.Reader) ([]Error, error) {
	errs, err := s.validateReader(m, r)
	if cap(s.buf) > maxKeepBuf {
		s.buf = nil
	}
	return errs, err
}

// validateReader is Validate keeping the read buffer however large it
// grew, for a caller that bounds the State's life (a ValidateFiles worker).
func (s *State) validateReader(m Model, r io.Reader) ([]Error, error) {
	data, err := xmltok.ReadAll(r, s.buf)
	s.buf = data
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return s.ValidateBytes(m, data)
}

// reserve sizes the read buffer for an n-byte document, plus the byte
// xmltok.ReadAll reads EOF into, so the read allocates at most once
// instead of regrowing from a small buffer.
func (s *State) reserve(n int64) {
	if n >= 0 && int64(cap(s.buf)) <= n {
		s.buf = make([]byte, 0, n+1)
	}
}

// ValidateBytes is Validate on an in-memory document, skipping the read.
func (s *State) ValidateBytes(m Model, data []byte) ([]Error, error) {
	s.errs = nil
	s.symbols = 0
	s.docBytes = len(data)
	clear(s.ids)
	s.refs = s.refs[:0]
	s.refArena = s.refArena[:0]
	err := s.walk(m, data)
	// IDs can be declared after the IDREFs pointing at them, so resolution
	// waits until the whole document has been read.
	if err == nil {
		for _, ref := range s.refs {
			if _, ok := s.ids[string(s.refArena[ref.lo:ref.hi])]; !ok {
				s.report("/"+string(ref.elem), ref.elem, ref.off,
					fmt.Sprintf("IDREF %q matches no ID in the document", s.refArena[ref.lo:ref.hi]))
			}
		}
	}
	// Drop every frame's references into the schema and the document, so
	// a pooled State pins neither; the counter streams keep their buffers.
	stack := s.stack[:cap(s.stack)]
	for i := range stack {
		stack[i].c, stack[i].name, stack[i].stream = nil, nil, match.Stream{}
	}
	s.stack = stack[:0]
	errs := s.errs
	s.errs = nil
	return errs, err
}

var errNoRoot = errors.New("document has no root element")

// walk is the token loop: it checks the document's root, every element's
// children, text and attributes, recording violations in s.errs.
func (s *State) walk(m Model, data []byte) error {
	tok := &s.tok
	tok.Reset(data)
	tok.SetEntities(m.Entities())
	doctype := ""
	sawRoot := false
	for {
		if err := s.cp.Check(); err != nil {
			return fmt.Errorf("validation aborted: %w", err)
		}
		kind, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("malformed XML: %w", err)
		}
		switch kind {
		case xmltok.Directive:
			if !sawRoot {
				root, ents := m.Doctype(string(tok.Text()))
				if root != "" {
					doctype = root
				}
				if ents != nil {
					tok.SetEntities(ents)
				}
			}
		case xmltok.StartElement:
			name := tok.Local()
			off := tok.Offset()
			var c *Content
			if len(s.stack) == 0 {
				if sawRoot {
					// A second top-level element is not well-formed XML;
					// report it, then skip its subtree.
					s.report("/"+string(name), name, off, "document has more than one root element")
					for tok.Depth() > 0 {
						if _, err := tok.Next(); err != nil {
							return fmt.Errorf("malformed XML: %w", err)
						}
					}
					continue
				}
				sawRoot = true
				c = m.Root(s, name, doctype)
			} else {
				c = s.child(m, &s.stack[len(s.stack)-1], name, off)
			}
			nondet := c != nil && c.Kind == Children && c.Matcher == nil && c.Counter == nil
			if nondet {
				s.Violation(name, off, "content model is nondeterministic; cannot validate")
			}
			if c == nil || c.AttrRules || tok.AttrCount() > 0 || s.plain {
				m.Attrs(s, c, name)
			}
			f := s.push()
			//dregex:ok spanretain name is a Name() span into the stable document buffer (never scratch); ValidateBytes clears it before the next document
			f.c, f.name = c, name
			f.failed = c == nil || nondet
			if f.failed {
				break
			}
			switch c.Kind {
			case Children:
				if c.Counter != nil {
					c.Counter.InitStream(&f.ctrs)
				} else {
					c.Matcher.InitStream(&f.stream)
				}
			case All:
				n := len(c.Names)
				if cap(f.seen) < n {
					f.seen = make([]bool, n)
				} else {
					f.seen = f.seen[:n]
					clear(f.seen)
				}
			}
		case xmltok.EndElement:
			if len(s.stack) == 0 {
				continue // stray end tag past a skipped extra root
			}
			s.end(&s.stack[len(s.stack)-1])
			s.stack = s.stack[:len(s.stack)-1]
		case xmltok.Text:
			if len(s.stack) == 0 {
				continue
			}
			f := &s.stack[len(s.stack)-1]
			if f.c == nil || f.failed || f.c.Text || isSpace(tok.Text()) {
				continue
			}
			s.report(s.path(), f.name, tok.Offset(), "text content not allowed")
			f.failed = true
		}
	}
	if !sawRoot {
		return errNoRoot
	}
	return nil
}

// push returns the next frame slot, reusing the slot's buffers when the
// stack has been this deep before.
func (s *State) push() *frame {
	if len(s.stack) < cap(s.stack) {
		s.stack = s.stack[:len(s.stack)+1]
	} else {
		s.stack = append(s.stack, frame{})
	}
	f := &s.stack[len(s.stack)-1]
	f.any = false
	return f
}

// child records child name, at off, in parent frame p's content model and
// returns the child's content. Under a linked parent one alphabet probe
// does both: the symbol steps p's stream and indexes p's child table.
func (s *State) child(m Model, p *frame, name []byte, off int) *Content {
	pc := p.c
	if pc == nil || pc.Kids == nil || s.plain {
		s.feed(p, name, off)
		return m.Child(s, pc, name)
	}
	a, ok := run.LookupBytes(pc.alpha, name) // ast.None, which Feed rejects, on a miss
	if !p.failed {
		s.step(p, a, name, off)
	}
	if ok {
		if kid := pc.Kids[a]; kid != nil {
			return kid
		}
	}
	return m.Child(s, pc, name)
}

// feed records child name in the parent frame's content model.
func (s *State) feed(p *frame, name []byte, off int) {
	if p.c == nil || p.failed {
		return // parent already failed; keep descending silently
	}
	c := p.c
	switch c.Kind {
	case Any:
	case Empty:
		s.fail(p, off, fmt.Sprintf("EMPTY element has child <%s>", name))
	case Simple:
		s.fail(p, off, fmt.Sprintf("child <%s> not allowed: simple content", name))
	case Mixed:
		if !c.Allowed[string(name)] {
			s.fail(p, off, fmt.Sprintf("child <%s> not allowed in mixed model %s", name, c.Model))
		}
	case All:
		i, ok := c.Members[string(name)]
		switch {
		case !ok:
			s.fail(p, off, fmt.Sprintf("child <%s> not allowed in %s", name, c.Model))
		case p.seen[i]:
			s.fail(p, off, fmt.Sprintf("child <%s> repeated in %s", name, c.Model))
		default:
			p.seen[i] = true
			p.any = true
		}
	case Children:
		var alpha *ast.Alphabet
		if c.Counter != nil {
			alpha = p.ctrs.Alphabet()
		} else {
			alpha = p.stream.Alphabet()
		}
		a, _ := run.LookupBytes(alpha, name)
		s.step(p, a, name, off)
	}
}

// step feeds symbol a, naming child name at off, to the Children model of
// parent frame p.
func (s *State) step(p *frame, a ast.Symbol, name []byte, off int) {
	s.symbols++
	var ok bool
	if p.c.Counter != nil {
		ok = p.ctrs.Feed(a)
	} else {
		ok = p.stream.Feed(a)
	}
	if !ok {
		e := s.fail(p, off, fmt.Sprintf("child <%s> violates content model %s", name, p.c.Model))
		e.Expected = p.expected()
	}
}

// end checks the content of frame f, about to be popped, at its end tag.
func (s *State) end(f *frame) {
	if f.c == nil || f.failed {
		return
	}
	c := f.c
	switch c.Kind {
	case Children:
		var ok bool
		if c.Counter != nil {
			ok = f.ctrs.Accepts()
		} else {
			ok = f.stream.Accepts()
		}
		if !ok {
			e := s.report(s.path(), f.name, s.tok.Offset(),
				fmt.Sprintf("children end prematurely for content model %s", c.Model))
			e.Expected = f.expected()
		}
	case All:
		if c.Optional && !f.any {
			return
		}
		for i, req := range c.Required {
			if req && !f.seen[i] {
				s.report(s.path(), f.name, s.tok.Offset(),
					fmt.Sprintf("missing required child <%s> of %s", c.Names[i], c.Model))
			}
		}
	}
}

// expected lists the children the frame's Children model could have
// taken at its failure point.
func (f *frame) expected() []string {
	if f.c.Counter != nil {
		return run.ExpectedNames(&f.ctrs, nil)
	}
	return run.ExpectedNames(&f.stream, nil)
}

// fail reports a violation of parent frame p's content model at off and
// stops checking p.
func (s *State) fail(p *frame, off int, msg string) *Error {
	p.failed = true
	return s.report(s.path(), p.name, off, msg)
}

// report records a violation of element elem at path, stamped with the
// document position of offset off.
func (s *State) report(path string, elem []byte, off int, msg string) *Error {
	line, col := s.tok.Position(off)
	s.errs = append(s.errs, Error{Path: path, Element: string(elem), Msg: msg, Line: line, Col: col})
	return &s.errs[len(s.errs)-1]
}

// path renders the open-element stack. Callers composing a start tag's
// own path append "/"+name themselves, so the empty stack renders as ""
// — not "/", which would double the slash in "//root".
func (s *State) path() string {
	var b strings.Builder
	for i := range s.stack {
		b.WriteByte('/')
		b.Write(s.stack[i].name)
	}
	return b.String()
}

// isSpace reports whether text is XML whitespace only.
func isSpace(text []byte) bool {
	for _, c := range text {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}
