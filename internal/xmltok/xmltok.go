// Package xmltok is a purpose-built streaming XML tokenizer for the
// validation hot path. It tokenizes a document held in a []byte —
// start/end/empty element tags with attributes, character data, CDATA
// sections, comments, processing instructions and directives — without
// allocating in steady state, so a pooled Tokenizer revalidates documents
// with zero per-document garbage.
//
// Character data and attribute values are scanned in one pass: a single
// classifying loop checks the character range, "]]>" and every reference
// (syntax, known entity, character-reference range, replacement text) and
// records only whether the value needs rewriting. Resolution happens on
// demand: Text and AttrValue return a subslice of the input when nothing
// needs rewriting, and otherwise expand references and normalize \r into
// a reusable scratch buffer on their first call for the token. Either way
// the bytes are valid until the next call to Next. End tags are matched
// in place against the open element's name. Anything the single pass does
// not accept outright goes to a cold path that replays the multi-pass
// scan (find the end, then check, then resolve), so an error carries the
// message and position that scan gives it, whether or not a caller reads
// the token's text.
//
// The token stream deliberately mirrors encoding/xml's Strict decoder on
// well-formed input: the same tag-nesting checks ("element <a> closed by
// </b>", "unexpected EOF" with open elements), the same text semantics
// (\r and \r\n rewritten to \n, "]]>" forbidden in plain character data,
// the five predefined entities plus a caller-supplied internal-entity
// map, decimal/hex character references capped at unicode.MaxRune with
// surrogates encoding as U+FFFD), the same character-range validation,
// and the same directive accumulation (quote-aware, <>-depth-tracked,
// embedded comments replaced by a space). Where encoding/xml consults
// the full Unicode name tables, xmltok accepts a strict superset of
// names (any byte ≥ 0x80 may appear in a name), so a document
// encoding/xml tokenizes is never rejected for its names here; the
// differential fuzz target FuzzXMLTok pins the agreement.
//
// Positions are byte-accurate: every token records the byte offset of
// its first character, and Position converts any offset to a 1-based
// line and rune column — multi-byte UTF-8 text does not skew columns,
// and a leading byte-order mark is stripped by Reset so offsets match
// the text an author sees.
package xmltok

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// Kind identifies a token produced by Next.
type Kind uint8

// Token kinds. Text covers both character data and CDATA sections (one
// token per section, as encoding/xml emits them). A self-closing tag
// yields a StartElement with SelfClosing()==true followed by a synthetic
// EndElement.
const (
	Text Kind = iota
	StartElement
	EndElement
	Comment
	ProcInst
	Directive
)

func (k Kind) String() string {
	switch k {
	case Text:
		return "Text"
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	case Directive:
		return "Directive"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SyntaxError is a malformed-XML error with a byte-accurate position.
type SyntaxError struct {
	Msg    string
	Line   int // 1-based line
	Col    int // 1-based rune column within the line
	Offset int // byte offset in the (BOM-stripped) input
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// bom is the UTF-8 byte-order mark; Reset strips it so positions are
// relative to the text an author sees.
var bom = []byte("\uFEFF")

// maxKeepScratch caps the scratch buffer retained across Reset, so one
// pathological document cannot pin megabytes behind a pooled Tokenizer.
const maxKeepScratch = 1 << 20

// valRef locates a token's text: a [lo,hi) range in the input (zero-copy,
// or still to be resolved) or in the scratch buffer. Ranges index rather
// than subslice so scratch may grow underneath.
type valRef struct {
	lo, hi int
	where  uint8
}

// Where a valRef's range lies.
const (
	inData     uint8 = iota // final bytes in the input
	inScratch               // final bytes in scratch
	unresolved              // input bytes still to expand into scratch
)

// attrSpan is one attribute: name as a range in the input, value as a
// valRef, plus the name's byte offset for error positions.
type attrSpan struct {
	nameLo, nameHi int
	val            valRef
}

// span is a name range in the input (element-stack entries).
type span struct{ lo, hi int }

// Tokenizer scans one document per Reset. The zero value is ready.
// Not safe for concurrent use.
type Tokenizer struct {
	data     []byte
	pos      int
	entities map[string]string

	kind    Kind
	tokOff  int // byte offset of the token's first byte
	name    span
	content valRef
	self    bool
	attrs   []attrSpan
	nattr   int

	scratch []byte
	stack   []span
	pending bool // synthetic EndElement of a self-closing tag is due
	err     error

	// memoized forward position cursor for Position
	posOff, posLine, lineStart int
}

// Reset binds the tokenizer to a new document, stripping a leading BOM.
// The caller must keep data unmodified while tokenizing; returned names
// and text alias it.
func (t *Tokenizer) Reset(data []byte) {
	t.data = bytes.TrimPrefix(data, bom)
	t.pos = 0
	t.entities = nil
	t.kind = Text
	t.tokOff = 0
	t.name = span{}
	t.content = valRef{}
	t.self = false
	t.nattr = 0
	if cap(t.scratch) > maxKeepScratch {
		t.scratch = nil
	}
	t.scratch = t.scratch[:0]
	t.stack = t.stack[:0]
	t.pending = false
	t.err = nil
	t.posOff, t.posLine, t.lineStart = 0, 1, 0
}

// SetEntities installs the internal general entities resolvable in this
// document (on top of the five predefined ones, which cannot be
// overridden — the same precedence as encoding/xml). The map is read,
// never written, and may be shared.
func (t *Tokenizer) SetEntities(ents map[string]string) { t.entities = ents }

// Kind returns the kind of the current token.
func (t *Tokenizer) Kind() Kind { return t.kind }

// Offset returns the byte offset of the current token's first byte (the
// '<' of a tag, the first character of text).
func (t *Tokenizer) Offset() int { return t.tokOff }

// Name returns the full element name (prefix included) of a
// StartElement or EndElement, or the target of a ProcInst. Valid until
// the next call to Next.
//
//dregex:noalloc
func (t *Tokenizer) Name() []byte { return t.data[t.name.lo:t.name.hi] }

// Local returns the local part of the element name: the part after the
// colon when the name has exactly one with both sides nonempty (the
// rule encoding/xml applies), the whole name otherwise.
//
//dregex:noalloc
func (t *Tokenizer) Local() []byte { return localOf(t.Name()) }

// Text returns the current token's content: resolved character data for
// Text, raw bytes for Comment (without <!-- -->), ProcInst (after the
// target, without <? ?>) and Directive (between <! and >, embedded
// comments replaced by a space). Text that needs rewriting is resolved
// into scratch on the first call for the token. Valid until the next call
// to Next.
//
//dregex:noalloc
func (t *Tokenizer) Text() []byte { return t.bytesOf(&t.content) }

// SelfClosing reports whether the current StartElement came from an
// empty-element tag (<a/>); its synthetic EndElement follows.
func (t *Tokenizer) SelfClosing() bool { return t.self }

// AttrCount returns the number of attributes of the current StartElement.
func (t *Tokenizer) AttrCount() int { return t.nattr }

// AttrName returns the full name of attribute i.
//
//dregex:noalloc
func (t *Tokenizer) AttrName(i int) []byte {
	a := &t.attrs[i]
	return t.data[a.nameLo:a.nameHi]
}

// AttrLocal returns the local part of attribute i's name.
//
//dregex:noalloc
func (t *Tokenizer) AttrLocal(i int) []byte { return localOf(t.AttrName(i)) }

// AttrValue returns the resolved value of attribute i (entities
// expanded, \r normalized), resolving it into scratch on the first call
// when it needs rewriting. Valid until the next call to Next.
//
//dregex:noalloc
func (t *Tokenizer) AttrValue(i int) []byte { return t.bytesOf(&t.attrs[i].val) }

// AttrNameOffset returns the byte offset of attribute i's name, for
// error positions.
func (t *Tokenizer) AttrNameOffset(i int) int { return t.attrs[i].nameLo }

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) }

// bytesOf returns v's bytes, first expanding an unresolved range into
// scratch (at most once: v then points there).
//
//dregex:noalloc
func (t *Tokenizer) bytesOf(v *valRef) []byte {
	switch v.where {
	case inScratch:
		return t.scratch[v.lo:v.hi]
	case unresolved:
		lo := len(t.scratch)
		t.scratch, _ = t.expand(t.scratch, v.lo, v.hi, true)
		*v = valRef{lo, len(t.scratch), inScratch}
		return t.scratch[lo:]
	}
	return t.data[v.lo:v.hi]
}

// localOf implements encoding/xml's prefix split: exactly one colon with
// nonempty prefix and suffix selects the suffix; anything else keeps the
// whole name.
//
//dregex:noalloc
func localOf(name []byte) []byte {
	i := bytes.IndexByte(name, ':')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	if bytes.IndexByte(name[i+1:], ':') >= 0 {
		return name
	}
	return name[i+1:]
}

// Position converts a byte offset to a 1-based line and rune column. The
// cursor is memoized forward, so calls with nondecreasing offsets (the
// common error-reporting order) never rescan the document.
func (t *Tokenizer) Position(off int) (line, col int) {
	if off > len(t.data) {
		off = len(t.data)
	}
	if off < 0 {
		off = 0
	}
	if off < t.posOff {
		t.posOff, t.posLine, t.lineStart = 0, 1, 0
	}
	for i := t.posOff; i < off; i++ {
		if t.data[i] == '\n' {
			t.posLine++
			t.lineStart = i + 1
		}
	}
	t.posOff = off
	return t.posLine, 1 + utf8.RuneCount(t.data[t.lineStart:off])
}

//dregex:coldalloc
func (t *Tokenizer) syntaxErr(off int, format string, args ...any) error {
	line, col := t.Position(off)
	err := &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: line, Col: col, Offset: off}
	t.err = err
	return err
}

// nameByte marks bytes that may appear in a name: encoding/xml's ASCII
// name bytes plus every byte ≥ 0x80 (a strict superset of its Unicode
// name tables, checked there after the fact).
var nameByte [256]bool

// Byte classes of the character-data scans. cPlain bytes need no
// handling in text or in an attribute value.
const (
	cPlain uint8 = iota
	cLT          // '<': ends text; illegal in an attribute value
	cAmp         // '&': starts a reference
	cCR          // '\r': rewritten to '\n'
	cBrack       // ']': may start the "]]>" text forbids
	cQuote       // '"' or '\'': may close an attribute value
	cHigh        // ≥ 0x80: starts a multi-byte rune
	cBad         // a control byte outside the XML Char production
)

var charClass [256]uint8

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		nameByte[c] = 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' ||
			'0' <= b && b <= '9' || b == '_' || b == ':' || b == '.' || b == '-' ||
			b >= 0x80
		switch {
		case b == '<':
			charClass[c] = cLT
		case b == '&':
			charClass[c] = cAmp
		case b == '\r':
			charClass[c] = cCR
		case b == ']':
			charClass[c] = cBrack
		case b == '"' || b == '\'':
			charClass[c] = cQuote
		case b >= 0x80:
			charClass[c] = cHigh
		case b < 0x20 && b != '\t' && b != '\n':
			charClass[c] = cBad
		}
	}
}

// isInCharacterRange is the XML 1.0 Char production (§2.2), byte-for-byte
// the check encoding/xml applies to resolved character data.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Next advances to the next token. It returns io.EOF at a clean end of
// input; any other error is a *SyntaxError (or a sticky earlier error).
//
//dregex:noalloc
func (t *Tokenizer) Next() (Kind, error) {
	if t.err != nil {
		return 0, t.err
	}
	if t.pending {
		// The EndElement half of a self-closing tag: the name span is
		// still the start tag's, the stack still holds it.
		t.pending = false
		t.kind = EndElement
		t.self = false
		t.nattr = 0
		t.stack = t.stack[:len(t.stack)-1]
		return EndElement, nil
	}
	t.self = false
	t.nattr = 0
	t.scratch = t.scratch[:0]
	if t.pos >= len(t.data) {
		if len(t.stack) > 0 {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		t.err = io.EOF
		return 0, io.EOF
	}
	t.tokOff = t.pos
	if t.data[t.pos] != '<' {
		return t.scanText()
	}
	t.pos++
	if t.pos >= len(t.data) {
		return 0, t.syntaxErr(t.pos, "unexpected EOF")
	}
	switch t.data[t.pos] {
	case '/':
		t.pos++
		return t.scanEnd()
	case '?':
		t.pos++
		return t.scanProcInst()
	case '!':
		t.pos++
		if t.pos >= len(t.data) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		switch t.data[t.pos] {
		case '-':
			t.pos++
			if t.pos >= len(t.data) {
				return 0, t.syntaxErr(t.pos, "unexpected EOF")
			}
			if t.data[t.pos] != '-' {
				return 0, t.syntaxErr(t.pos, "invalid sequence <!- not part of <!--")
			}
			t.pos++
			return t.scanComment()
		case '[':
			t.pos++
			return t.scanCDATA()
		}
		return t.scanDirective()
	}
	return t.scanStart()
}

//dregex:noalloc
func (t *Tokenizer) skipSpace() {
	d := t.data
	for t.pos < len(d) {
		switch d[t.pos] {
		case ' ', '\t', '\n', '\r':
			t.pos++
		default:
			return
		}
	}
}

// scanName consumes a name at the current position; ok is false when the
// first byte cannot start one (position unchanged).
//
//dregex:noalloc
func (t *Tokenizer) scanName() (sp span, ok bool) {
	d := t.data
	i := t.pos
	for i < len(d) && nameByte[d[i]] {
		i++
	}
	if i == t.pos {
		return span{}, false
	}
	sp = span{t.pos, i}
	t.pos = i
	return sp, true
}

// scanText scans character data up to the next '<' in one pass. Any
// anomaly hands the whole segment to textCold, which words the error.
//
//dregex:noalloc
func (t *Tokenizer) scanText() (Kind, error) {
	d := t.data
	lo := t.pos
	i := lo
	where := inData
scan:
	for i < len(d) {
		switch charClass[d[i]] {
		case cPlain, cQuote:
			i++
		case cLT:
			break scan
		case cBrack:
			if i+2 < len(d) && d[i+1] == ']' && d[i+2] == '>' {
				return t.textCold(lo)
			}
			i++
		case cCR:
			where = unresolved
			i++
		case cAmp:
			end, ok := t.checkRef(i)
			if !ok {
				return t.textCold(lo)
			}
			where = unresolved
			i = end
		case cHigh:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 || !isInCharacterRange(r) {
				return t.textCold(lo)
			}
			i += size
		default: // cBad
			return t.textCold(lo)
		}
	}
	t.pos = i
	t.kind = Text
	t.content = valRef{lo, i, where}
	return Text, nil
}

// textCold is the multi-pass scan of the text segment at lo: find its end,
// forbid "]]>", then resolve it. It words and places every error the
// single pass detects, in that order. It also accepts the one case the
// single pass leaves to it: an invalid raw sequence or replacement text
// that, once resolved, joins its neighbour into valid UTF-8.
//
// The "]]>" check runs on raw bytes: a reference breaking up the three
// bytes hides them, exactly as encoding/xml's byte tracking (which resets
// across references) behaves.
//
//dregex:coldalloc
func (t *Tokenizer) textCold(lo int) (Kind, error) {
	d := t.data
	hi := len(d)
	if i := bytes.IndexByte(d[lo:], '<'); i >= 0 {
		hi = lo + i
	}
	if i := bytes.Index(d[lo:hi], []byte("]]>")); i >= 0 {
		return 0, t.syntaxErr(lo+i, "unescaped ]]> not in CDATA section")
	}
	v, err := t.resolve(lo, hi, true)
	if err != nil {
		return 0, err
	}
	t.pos = hi
	t.kind = Text
	t.content = v
	return Text, nil
}

func (t *Tokenizer) scanCDATA() (Kind, error) {
	d := t.data
	const open = "CDATA["
	for i := 0; i < len(open); i++ {
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		if d[t.pos] != open[i] {
			return 0, t.syntaxErr(t.pos, "invalid <![ sequence")
		}
		t.pos++
	}
	lo := t.pos
	end := bytes.Index(d[lo:], []byte("]]>"))
	if end < 0 {
		return 0, t.syntaxErr(len(d), "unexpected EOF in CDATA section")
	}
	v, err := t.resolve(lo, lo+end, false)
	if err != nil {
		return 0, err
	}
	t.pos = lo + end + 3
	t.kind = Text
	t.content = v
	return Text, nil
}

func (t *Tokenizer) scanComment() (Kind, error) {
	d := t.data
	lo := t.pos
	i := bytes.Index(d[lo:], []byte("--"))
	if i < 0 {
		return 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	end := lo + i
	if end+2 >= len(d) {
		return 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	if d[end+2] != '>' {
		return 0, t.syntaxErr(end, `invalid sequence "--" not allowed in comments`)
	}
	t.pos = end + 3
	t.kind = Comment
	t.content = valRef{lo, end, inData}
	return Comment, nil
}

func (t *Tokenizer) scanProcInst() (Kind, error) {
	d := t.data
	name, ok := t.scanName()
	if !ok {
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		return 0, t.syntaxErr(t.pos, "expected target name after <?")
	}
	t.skipSpace()
	lo := t.pos
	i := bytes.Index(d[lo:], []byte("?>"))
	if i < 0 {
		return 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	end := lo + i
	t.pos = end + 2
	t.kind = ProcInst
	t.name = name
	t.content = valRef{lo, end, inData}
	if string(d[name.lo:name.hi]) == "xml" {
		content := d[lo:end]
		if ver := procInstParam(content, "version"); len(ver) > 0 && string(ver) != "1.0" {
			return 0, t.syntaxErr(t.tokOff, "unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam(content, "encoding"); len(enc) > 0 &&
			string(enc) != "utf-8" && string(enc) != "UTF-8" {
			return 0, t.syntaxErr(t.tokOff, "unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	return ProcInst, nil
}

// procInstParam extracts a pseudo-attribute (version=…, encoding=…) from
// an xml-declaration body, with encoding/xml's exact (lenient) scan.
func procInstParam(s []byte, param string) []byte {
	pat := param + "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(pat))
		if k < 0 || len(pat)+k >= len(sub) {
			return nil
		}
		i += k + len(pat) + 1
		if c := sub[k+len(pat)]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// scanDirective accumulates a <!…> directive with encoding/xml's exact
// algorithm: the first byte after "<!" is taken raw, quoted '<' and '>'
// do not nest, unquoted ones track depth, and an embedded comment is
// replaced by a single space. Content always builds in scratch (a
// directive is at most once per document on the validation path).
func (t *Tokenizer) scanDirective() (Kind, error) {
	d := t.data
	s := t.scratch
	slo := len(s)
	s = append(s, d[t.pos]) // first byte raw, uninspected
	t.pos++
	var inquote byte
	depth := 0
	var b byte
	for {
		if t.pos >= len(d) {
			t.scratch = s
			return 0, t.syntaxErr(len(d), "unexpected EOF")
		}
		b = d[t.pos]
		t.pos++
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	handleB:
		s = append(s, b)
		switch {
		case b == inquote && inquote != 0:
			inquote = 0
		case inquote != 0:
			// quoted: no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			// Look for <!-- beginning a comment.
			const cs = "!--"
			for i := 0; i < len(cs); i++ {
				if t.pos >= len(d) {
					t.scratch = s
					return 0, t.syntaxErr(len(d), "unexpected EOF")
				}
				b = d[t.pos]
				t.pos++
				if b != cs[i] {
					s = append(s, cs[:i]...)
					depth++
					goto handleB
				}
			}
			s = s[:len(s)-1] // drop the '<'
			j := bytes.Index(d[t.pos:], []byte("-->"))
			if j < 0 {
				t.scratch = s
				return 0, t.syntaxErr(len(d), "unexpected EOF")
			}
			t.pos += j + 3
			s = append(s, ' ')
		}
	}
	t.scratch = s
	t.kind = Directive
	t.content = valRef{slo, len(s), inScratch}
	return Directive, nil
}

//dregex:noalloc
func (t *Tokenizer) scanStart() (Kind, error) {
	d := t.data
	name, ok := t.scanName()
	if !ok {
		return 0, t.syntaxErr(t.pos, "expected element name after <")
	}
	t.attrs = t.attrs[:0]
	empty := false
	for {
		t.skipSpace()
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		b := d[t.pos]
		if b == '/' {
			t.pos++
			if t.pos >= len(d) {
				return 0, t.syntaxErr(t.pos, "unexpected EOF")
			}
			if d[t.pos] != '>' {
				return 0, t.syntaxErr(t.pos, "expected /> in element")
			}
			t.pos++
			empty = true
			break
		}
		if b == '>' {
			t.pos++
			break
		}
		aname, ok := t.scanName()
		if !ok {
			return 0, t.syntaxErr(t.pos, "expected attribute name in element")
		}
		t.skipSpace()
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		if d[t.pos] != '=' {
			return 0, t.syntaxErr(t.pos, "attribute name without = in element")
		}
		t.pos++
		t.skipSpace()
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		q := d[t.pos]
		if q != '"' && q != '\'' {
			return 0, t.syntaxErr(t.pos, "unquoted or missing attribute value in element")
		}
		t.pos++
		v, err := t.scanValue(q)
		if err != nil {
			return 0, err
		}
		t.attrs = append(t.attrs, attrSpan{nameLo: aname.lo, nameHi: aname.hi, val: v})
	}
	t.kind = StartElement
	t.name = name
	t.nattr = len(t.attrs)
	t.self = empty
	t.pending = empty
	t.stack = append(t.stack, name)
	return StartElement, nil
}

// scanEnd matches the end tag against the open element's name in place:
// the name's bytes, then a byte that cannot continue a name, then
// optional space and '>'. Anything else is an error endErr words.
//
//dregex:noalloc
func (t *Tokenizer) scanEnd() (Kind, error) {
	d := t.data
	if len(t.stack) == 0 {
		return 0, t.endErr()
	}
	top := t.stack[len(t.stack)-1]
	lo := t.pos
	hi := lo + top.hi - top.lo
	if hi >= len(d) || !bytes.Equal(d[lo:hi], d[top.lo:top.hi]) || nameByte[d[hi]] {
		return 0, t.endErr()
	}
	t.pos = hi
	t.skipSpace()
	if t.pos >= len(d) || d[t.pos] != '>' {
		t.pos = lo
		return 0, t.endErr()
	}
	t.pos++
	t.stack = t.stack[:len(t.stack)-1]
	t.kind = EndElement
	t.name = span{lo, hi}
	return EndElement, nil
}

// endErr words the error for the end tag at t.pos that scanEnd refused,
// in the order of a scan-then-compare: the name, the closing '>', then
// the match against the open element.
//
//dregex:coldalloc
func (t *Tokenizer) endErr() error {
	d := t.data
	name, ok := t.scanName()
	if !ok {
		if t.pos >= len(d) {
			return t.syntaxErr(t.pos, "unexpected EOF")
		}
		return t.syntaxErr(t.pos, "expected element name after </")
	}
	t.skipSpace()
	if t.pos >= len(d) {
		return t.syntaxErr(t.pos, "unexpected EOF")
	}
	if d[t.pos] != '>' {
		return t.syntaxErr(t.pos,
			"invalid characters between </%s and >", d[name.lo:name.hi])
	}
	if len(t.stack) == 0 {
		return t.syntaxErr(t.tokOff,
			"unexpected end element </%s>", d[name.lo:name.hi])
	}
	top := t.stack[len(t.stack)-1]
	return t.syntaxErr(t.tokOff, "element <%s> closed by </%s>",
		d[top.lo:top.hi], d[name.lo:name.hi])
}

// scanValue scans the attribute value after its opening quote q in one
// pass, leaving t.pos past the closing quote. Any anomaly hands the value
// to valueCold, which words the error.
//
//dregex:noalloc
func (t *Tokenizer) scanValue(q byte) (valRef, error) {
	d := t.data
	lo := t.pos
	where := inData
	for i := lo; i < len(d); {
		switch charClass[d[i]] {
		case cPlain, cBrack:
			i++
		case cQuote:
			if d[i] == q {
				t.pos = i + 1
				return valRef{lo, i, where}, nil
			}
			i++
		case cCR:
			where = unresolved
			i++
		case cAmp:
			end, ok := t.checkRef(i)
			if !ok {
				return t.valueCold(lo, q)
			}
			where = unresolved
			i = end
		case cHigh:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 || !isInCharacterRange(r) {
				return t.valueCold(lo, q)
			}
			i += size
		default: // cLT, cBad
			return t.valueCold(lo, q)
		}
	}
	return t.valueCold(lo, q)
}

// valueCold is the multi-pass scan of the attribute value at lo: find the
// closing quote, forbid '<', then resolve. Like textCold it words the
// single pass's errors in that order, and accepts only a value whose
// invalid sequences join into valid UTF-8 once resolved.
//
//dregex:coldalloc
func (t *Tokenizer) valueCold(lo int, q byte) (valRef, error) {
	d := t.data
	qi := bytes.IndexByte(d[lo:], q)
	if qi < 0 {
		return valRef{}, t.syntaxErr(len(d), "unexpected EOF")
	}
	if lt := bytes.IndexByte(d[lo:lo+qi], '<'); lt >= 0 {
		return valRef{}, t.syntaxErr(lo+lt, "unescaped < inside quoted string")
	}
	v, err := t.resolve(lo, lo+qi, true)
	if err != nil {
		return valRef{}, err
	}
	t.pos = lo + qi + 1
	return v, nil
}

// resolve is the multi-pass reference resolver. It produces the character
// data of [lo,hi): a zero-copy input range when no reference or carriage
// return occurs, otherwise an expansion into scratch that is validated
// as a whole. entities=false (CDATA) leaves '&' literal. CDATA sections
// use it, and the single-pass scans hand it every segment they refuse, so
// its order fixes the error a malformed segment reports: a bad byte before
// the first reference or '\r' at its own offset, then the first bad
// reference at its '&', then the first bad character of the resolved text
// at the segment start.
//
//dregex:noalloc
func (t *Tokenizer) resolve(lo, hi int, entities bool) (valRef, error) {
	d := t.data
	for i := lo; i < hi; {
		switch charClass[d[i]] {
		case cHigh:
			r, size := utf8.DecodeRune(d[i:hi])
			if r == utf8.RuneError && size == 1 {
				return valRef{}, t.syntaxErr(i, "invalid UTF-8")
			}
			if !isInCharacterRange(r) {
				return valRef{}, t.syntaxErr(i, "illegal character code %U", r)
			}
			i += size
		case cAmp:
			if entities {
				return t.resolveSlow(lo, hi, entities)
			}
			i++
		case cCR:
			return t.resolveSlow(lo, hi, entities)
		case cBad:
			return valRef{}, t.syntaxErr(i, "illegal character code %U", rune(d[i]))
		default:
			i++
		}
	}
	return valRef{lo, hi, inData}, nil
}

// resolveSlow expands [lo,hi) into scratch, then character-range checks
// the result, so entity replacement text is validated too.
func (t *Tokenizer) resolveSlow(lo, hi int, entities bool) (valRef, error) {
	slo := len(t.scratch)
	s, bad := t.expand(t.scratch, lo, hi, entities)
	t.scratch = s
	if bad >= 0 {
		return valRef{}, t.refErr(bad)
	}
	if err := t.checkChars(s[slo:], lo); err != nil {
		return valRef{}, err
	}
	return valRef{slo, len(s), inScratch}, nil
}

// checkChars validates resolved text (the scratch path; the zero-copy
// path validates inline). Errors position at errOff, the segment start.
func (t *Tokenizer) checkChars(b []byte, errOff int) error {
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if r == utf8.RuneError && size == 1 {
			return t.syntaxErr(errOff, "invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return t.syntaxErr(errOff, "illegal character code %U", r)
		}
		b = b[size:]
	}
	return nil
}

// expand appends the resolved text of [lo,hi) to s: references replaced
// (when entities is set), \r and \r\n rewritten to \n. Replacement text
// goes in verbatim and ends a \r\n pair, as in encoding/xml. bad is the
// offset of the first reference that does not resolve, or -1.
//
//dregex:noalloc
func (t *Tokenizer) expand(s []byte, lo, hi int, entities bool) (out []byte, bad int) {
	d := t.data
	for i := lo; i < hi; {
		j := i
		for j < hi && d[j] != '\r' && (d[j] != '&' || !entities) {
			j++
		}
		s = append(s, d[i:j]...)
		if j == hi {
			break
		}
		if d[j] == '\r' {
			s = append(s, '\n')
			if i = j + 1; i < hi && d[i] == '\n' {
				i++
			}
			continue
		}
		end, r, name := t.parseRef(j)
		if end < 0 {
			return s, j
		}
		if name == nil {
			s = utf8.AppendRune(s, r)
		} else if v, ok := t.entity(name); ok {
			s = append(s, v...)
		} else {
			return s, j
		}
		i = end
	}
	return s, -1
}

// checkRef is the single pass's test of the reference at d[i] == '&': it
// must be well formed, known, and resolve to legal characters. A
// surrogate character reference resolves to U+FFFD (see parseRef).
//
//dregex:noalloc
func (t *Tokenizer) checkRef(i int) (end int, ok bool) {
	end, r, name := t.parseRef(i)
	if end < 0 {
		return 0, false
	}
	if name == nil {
		return end, isInCharacterRange(r) || 0xD800 <= r && r <= 0xDFFF
	}
	v, ok := t.entity(name)
	return end, ok && legalText(v)
}

// refErr words the error for the reference at i that does not resolve.
func (t *Tokenizer) refErr(i int) error {
	if end, _, name := t.parseRef(i); end >= 0 {
		return t.syntaxErr(i, "invalid character entity &%s;", name)
	}
	return t.syntaxErr(i, "invalid character entity")
}

// parseRef parses the reference at d[i] == '&', the one reference grammar
// of the single-pass check and the expansion. A character reference
// returns its rune and a nil name: decimal or (after an 'x') hex digits
// with a value at most unicode.MaxRune; a surrogate encodes as U+FFFD when
// appended, the exact outcome of encoding/xml's string(rune(n)). An
// entity reference returns its name. end is the offset past the ';', or
// -1 when the reference is malformed. The reference cannot run past the
// segment holding it: the '<' or quote ending the segment is neither a
// name byte, a digit nor ';'.
//
//dregex:noalloc
func (t *Tokenizer) parseRef(i int) (end int, r rune, name []byte) {
	d := t.data
	j := i + 1
	if j < len(d) && d[j] == '#' {
		j++
		base := uint64(10)
		if j < len(d) && d[j] == 'x' {
			base = 16
			j++
		}
		start := j
		var n uint64
		for j < len(d) {
			b := d[j]
			var v uint64
			switch {
			case '0' <= b && b <= '9':
				v = uint64(b - '0')
			case base == 16 && 'a' <= b && b <= 'f':
				v = uint64(b-'a') + 10
			case base == 16 && 'A' <= b && b <= 'F':
				v = uint64(b-'A') + 10
			default:
				goto doneDigits
			}
			n = n*base + v
			if n > unicode.MaxRune {
				n = unicode.MaxRune + 1 // saturate: invalid either way
			}
			j++
		}
	doneDigits:
		if j == start || j >= len(d) || d[j] != ';' || n > unicode.MaxRune {
			return -1, 0, nil
		}
		return j + 1, rune(n), nil
	}
	start := j
	for j < len(d) && nameByte[d[j]] {
		j++
	}
	if j == start || j >= len(d) || d[j] != ';' {
		return -1, 0, nil
	}
	return j + 1, 0, d[start:j]
}

// entity returns the replacement text of a named reference: the five
// predefined entities first, then the SetEntities map.
//
//dregex:noalloc
func (t *Tokenizer) entity(name []byte) (string, bool) {
	//dregex:ok noalloc a switch on string(b) compiles to comparisons (pinned by TestTokenizeAllocs)
	switch string(name) {
	case "lt":
		return "<", true
	case "gt":
		return ">", true
	case "amp":
		return "&", true
	case "apos":
		return "'", true
	case "quot":
		return `"`, true
	}
	v, ok := t.entities[string(name)] // zero-alloc map probe
	return v, ok
}

// legalText reports whether s is valid UTF-8 made of XML characters.
//
//dregex:noalloc
func legalText(s string) bool {
	for i := 0; i < len(s); {
		switch charClass[s[i]] {
		case cBad:
			return false
		case cHigh:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 || !isInCharacterRange(r) {
				return false
			}
			i += size
		default:
			i++
		}
	}
	return true
}

// ReadAll drains r into buf (reusing its capacity), for validators that
// stream documents from readers into a pooled buffer. Read errors pass
// through unwrapped so callers can classify them (e.g. a body-size trip).
func ReadAll(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
