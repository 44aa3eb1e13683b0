package ast

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Input  string
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse %q at offset %d: %s", e.Input, e.Offset, e.Msg)
}

// ParseMath parses the paper's mathematical notation, in which every
// letter or digit is a single-character symbol, juxtaposition denotes
// concatenation, + denotes union, and *, ? and {i,j} are postfix. Examples:
//
//	(ab+b(b?)a)*        (a*ba+bb)*       (a{2,3}+b){2}b
//
// Whitespace is ignored. Symbols are interned into alpha. The nodes of
// the result come from one arena (see the package comment).
func ParseMath(input string, alpha *Alphabet) (*Node, error) {
	// Juxtaposition makes a concatenation per symbol: up to 2 nodes a byte.
	p := &parser{input: input, alpha: alpha, math: true, a: sized(2 * len(input))}
	return p.parseTop()
}

// ParseDTD parses XML-DTD content-model notation: multi-character names,
// ',' for concatenation, '|' for union, postfix *, ?, + and the XML-Schema
// style {i,j}. Examples:
//
//	(title, author+, (section | appendix)*)
//	(a | b)*, c?
//
// Whitespace is ignored. Names are interned into alpha. The one-or-more
// postfix e+ is represented as the numeric iteration e{1,∞}; Normalize (or
// DesugarPlus) rewrites it for the plain-operator pipeline. The nodes of
// the result come from one arena (see the package comment).
func ParseDTD(input string, alpha *Alphabet) (*Node, error) {
	p := &parser{input: input, alpha: alpha, math: false, a: sized(dtdNodes(input))}
	return p.parseTop()
}

// dtdNodes counts the nodes ParseDTD builds from a well-formed input:
// each ',' or '|' joins two operands, and each postfix operator wraps one.
// (The ',' of a {m,n} bound makes it an overestimate by two.)
func dtdNodes(input string) int {
	ops := strings.Count(input, ",") + strings.Count(input, "|")
	post := strings.Count(input, "?") + strings.Count(input, "*") +
		strings.Count(input, "+") + strings.Count(input, "{")
	return 2*ops + 1 + post
}

type parser struct {
	input string
	pos   int
	alpha *Alphabet
	math  bool
	a     arena
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Input: p.input, Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) {
		r, w := utf8.DecodeRuneInString(p.input[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

func (p *parser) peek() rune {
	if p.pos >= len(p.input) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(p.input[p.pos:])
	return r
}

func (p *parser) advance() rune {
	r, w := utf8.DecodeRuneInString(p.input[p.pos:])
	p.pos += w
	return r
}

// level is one parenthesis level of the parse in progress: the union of
// the completed alternatives, and the concatenation being extended.
type level struct {
	union, cat *Node
}

// result is the expression the level denotes once its closing
// parenthesis (or the end of input) is reached.
func (l *level) result(p *parser) *Node {
	if l.union == nil {
		return l.cat
	}
	return p.a.union(l.union, l.cat)
}

// parseTop parses the whole input with an explicit stack of parenthesis
// levels instead of recursion, so nesting depth costs heap slots, not
// goroutine stack. The grammar it implements is
//
//	union   := cat ('|' cat)*                 (math: '+')
//	cat     := postfix (',' postfix)*         (math: juxtaposition)
//	postfix := base ('*' | '?' | '+' | '{m,n}')*   (math: no '+')
//	base    := name | '(' union ')'
//
// with unions and concatenations associating to the left.
func (p *parser) parseTop() (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return nil, p.errf("empty expression")
	}
	levels := make([]level, 1, 16)
	for {
		// One operand: open its parentheses, then read the name inside.
		p.skipSpace()
		for p.peek() == '(' {
			p.advance()
			levels = append(levels, level{})
			p.skipSpace()
		}
		e, err := p.parseName()
		if err != nil {
			return nil, err
		}
		// Apply postfix operators and separators; each ')' closes a level
		// whose result is in turn the operand of the enclosing level.
		for {
			if e, err = p.parsePostfix(e); err != nil {
				return nil, err
			}
			top := &levels[len(levels)-1]
			if top.cat == nil {
				top.cat = e
			} else {
				top.cat = p.a.cat(top.cat, e)
			}
			p.skipSpace()
			r := p.peek()
			if r == p.unionRune() {
				p.advance()
				if top.union == nil {
					top.union = top.cat
				} else {
					top.union = p.a.union(top.union, top.cat)
				}
				top.cat = nil
				break
			}
			if !p.math && r == ',' {
				p.advance()
				break
			}
			if p.math && r != 0 && r != ')' && r != '|' {
				break // juxtaposition: the next operand starts here
			}
			e = top.result(p)
			if len(levels) == 1 {
				if p.pos < len(p.input) {
					return nil, p.errf("unexpected %q", p.peek())
				}
				return e, nil
			}
			if r != ')' {
				return nil, p.errf("expected ')'")
			}
			p.advance()
			levels = levels[:len(levels)-1]
		}
	}
}

func (p *parser) unionRune() rune {
	if p.math {
		return '+'
	}
	return '|'
}

// parsePostfix applies the postfix operators following operand e.
func (p *parser) parsePostfix(e *Node) (*Node, error) {
	for {
		p.skipSpace()
		switch p.peek() {
		case '*':
			p.advance()
			e = p.a.star(e)
		case '?':
			p.advance()
			e = p.a.opt(e)
		case '+':
			if p.math {
				return e, nil // union operator, handled above
			}
			p.advance()
			e = p.a.iter(e, 1, Unbounded)
		case '{':
			min, max, err := p.parseBounds()
			if err != nil {
				return nil, err
			}
			e = p.a.iter(e, min, max)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseBounds() (min, max int, err error) {
	p.advance() // '{'
	p.skipSpace()
	min, err = p.parseInt()
	if err != nil {
		return 0, 0, err
	}
	max = min
	p.skipSpace()
	if p.peek() == ',' {
		p.advance()
		p.skipSpace()
		if p.peek() == '}' {
			max = Unbounded
		} else {
			max, err = p.parseInt()
			if err != nil {
				return 0, 0, err
			}
		}
	}
	p.skipSpace()
	if p.peek() != '}' {
		return 0, 0, p.errf("expected '}' in bounds")
	}
	p.advance()
	if max != Unbounded && max < min {
		return 0, 0, p.errf("bounds {%d,%d}: max < min", min, max)
	}
	if max == 0 {
		return 0, 0, p.errf("bounds {%d,%d}: max must be positive", min, max)
	}
	return min, max, nil
}

func (p *parser) parseInt() (int, error) {
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] >= '0' && p.input[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected number")
	}
	n, err := strconv.Atoi(p.input[start:p.pos])
	if err != nil {
		return 0, p.errf("bad number: %v", err)
	}
	return n, nil
}

// parseName reads the symbol an operand starts with (any '(' has been
// consumed by parseTop).
func (p *parser) parseName() (*Node, error) {
	r := p.peek()
	switch {
	case r == 0:
		return nil, p.errf("unexpected end of expression")
	case r == '#' || r == '$':
		return nil, p.errf("symbol %q is reserved by rule (R1)", r)
	case p.math && (unicode.IsLetter(r) || unicode.IsDigit(r)):
		p.advance()
		if s, ok := p.alpha.LookupRune(r); ok {
			return p.a.sym(s), nil // no string conversion for a repeat
		}
		return p.a.sym(p.alpha.Intern(string(r))), nil
	case !p.math && isNameStart(r):
		start := p.pos
		p.advance()
		for isNameRune(p.peek()) {
			p.advance()
		}
		name := p.input[start:p.pos]
		if name == "#PCDATA" {
			return nil, p.errf("#PCDATA is only valid in mixed content (handled by package dtd)")
		}
		return p.a.sym(p.alpha.Intern(name)), nil
	default:
		return nil, p.errf("unexpected %q", r)
	}
}

func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == ':' || r == '#'
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		r == '_' || r == ':' || r == '-' || r == '.'
}

// MustParseMath is ParseMath that panics on error; intended for tests and
// examples with literal expressions.
func MustParseMath(input string, alpha *Alphabet) *Node {
	e, err := ParseMath(input, alpha)
	if err != nil {
		panic(err)
	}
	return e
}

// MustParseDTD is ParseDTD that panics on error.
func MustParseDTD(input string, alpha *Alphabet) *Node {
	e, err := ParseDTD(input, alpha)
	if err != nil {
		panic(err)
	}
	return e
}
