package ast

import (
	"fmt"
	"hash/maphash"
	"unicode/utf8"
)

// Symbol is a dense interned identifier for an alphabet symbol. The two
// phantom markers required by rule (R1) of the paper — # at the beginning
// and $ at the end of every expression — occupy the first two ids so that
// every compiled expression shares their encoding.
type Symbol int32

// Reserved symbols. Begin is the phantom symbol # and End is the phantom
// symbol $ of rule (R1); user symbols start at FirstUser.
const (
	Begin Symbol = 0
	End   Symbol = 1
	// FirstUser is the first id handed out for a user symbol.
	FirstUser Symbol = 2
	// None marks a name outside the alphabet. Every matcher rejects it, so
	// words can be interned against a sealed alphabet without mutating it.
	None Symbol = -1
)

// BeginName and EndName are the display names of the phantom markers.
const (
	BeginName = "#"
	EndName   = "$"
)

// Alphabet interns symbol names to dense Symbol ids. The zero value is not
// usable; call NewAlphabet. Interning mutates the alphabet and must finish
// before it is shared; Lookup* methods are read-only and safe for
// concurrent use afterwards.
//
// Names are found through an open-addressing table of ids rather than a Go
// map, so interning the σ names of a compile costs O(log σ) allocations
// (the table and the name list double) instead of one per map growth step.
type Alphabet struct {
	names []string
	// slots is a linear-probing hash table over names. A slot holds 0
	// when empty, else the high 32 bits of the name's hash (a fingerprint
	// that spares most string comparisons) over id+1. Its length is a
	// power of two at least twice len(names).
	slots []uint64
	// ascii caches single-ASCII-rune names so math-notation matching needs
	// neither a string conversion nor a map probe per symbol.
	ascii [128]Symbol
}

// NewAlphabet returns an empty alphabet with the phantom markers # and $
// pre-interned.
func NewAlphabet() *Alphabet {
	a := &Alphabet{
		names: []string{BeginName, EndName},
		slots: make([]uint64, 16),
	}
	a.insert(Begin)
	a.insert(End)
	for i := range a.ascii {
		a.ascii[i] = None
	}
	a.ascii['#'] = Begin
	a.ascii['$'] = End
	return a
}

// Intern returns the id for name, allocating a fresh one on first use.
func (a *Alphabet) Intern(name string) Symbol {
	if id, ok := a.Lookup(name); ok {
		return id
	}
	id := Symbol(len(a.names))
	a.names = append(a.names, name)
	if 2*len(a.names) > len(a.slots) {
		a.grow()
	} else {
		a.insert(id)
	}
	if len(name) == 1 && name[0] < 128 {
		a.ascii[name[0]] = id
	}
	return id
}

// seed keys every alphabet's name hash; names are hashed identically
// whether given as strings or bytes.
var seed = maphash.MakeSeed()

// slotOf is the table entry of symbol id whose name hashes to h.
func slotOf(h uint64, id Symbol) uint64 { return h&^(1<<32-1) | uint64(id+1) }

// insert places id in the first free slot of its probe sequence.
func (a *Alphabet) insert(id Symbol) {
	h := maphash.String(seed, a.names[id])
	mask := uint64(len(a.slots) - 1)
	i := h & mask
	for a.slots[i] != 0 {
		i = (i + 1) & mask
	}
	a.slots[i] = slotOf(h, id)
}

// grow doubles the table and reinserts every name.
func (a *Alphabet) grow() {
	a.slots = make([]uint64, 2*len(a.slots))
	for id := range a.names {
		a.insert(Symbol(id))
	}
}

// InternWord interns every name of a word, in order. It is the setup-time
// counterpart of LookupWord: use it while building an alphabet, not on the
// sealed alphabet of a compiled expression.
func (a *Alphabet) InternWord(names []string) []Symbol {
	word := make([]Symbol, len(names))
	for i, n := range names {
		word[i] = a.Intern(n)
	}
	return word
}

// Lookup returns the id for name and whether it has been interned.
func (a *Alphabet) Lookup(name string) (Symbol, bool) {
	h := maphash.String(seed, name)
	mask := uint64(len(a.slots) - 1)
	for i := h & mask; a.slots[i] != 0; i = (i + 1) & mask {
		if v := a.slots[i]; v>>32 == h>>32 && a.names[uint32(v)-1] == name {
			return Symbol(uint32(v) - 1), true
		}
	}
	return None, false
}

// LookupBytes returns the id for a name given as raw bytes (an element
// name straight out of a document tokenizer) and whether it has been
// interned. It does not allocate.
func (a *Alphabet) LookupBytes(name []byte) (Symbol, bool) {
	h := maphash.Bytes(seed, name)
	mask := uint64(len(a.slots) - 1)
	for i := h & mask; a.slots[i] != 0; i = (i + 1) & mask {
		if v := a.slots[i]; v>>32 == h>>32 && a.names[uint32(v)-1] == string(name) {
			return Symbol(uint32(v) - 1), true
		}
	}
	return None, false
}

// LookupRune returns the id of a single-rune name without allocating.
func (a *Alphabet) LookupRune(r rune) (Symbol, bool) {
	if r >= 0 && r < 128 {
		id := a.ascii[r]
		return id, id != None
	}
	var buf [utf8.UTFMax]byte
	return a.LookupBytes(utf8.AppendRune(buf[:0], r))
}

// LookupWord appends the ids of a word of names to dst and returns the
// extended slice; names outside the alphabet map to None (which every
// matcher rejects). It never interns, so it is safe on shared alphabets,
// and it performs no allocation when dst has sufficient capacity.
func (a *Alphabet) LookupWord(dst []Symbol, names []string) []Symbol {
	for _, n := range names {
		id, _ := a.Lookup(n) // None when absent
		dst = append(dst, id)
	}
	return dst
}

// Name returns the display name of s. It panics if s was never interned.
func (a *Alphabet) Name(s Symbol) string {
	if int(s) < 0 || int(s) >= len(a.names) {
		panic(fmt.Sprintf("ast.Alphabet.Name: unknown symbol %d", s))
	}
	return a.names[s]
}

// Size returns the number of interned symbols including # and $.
func (a *Alphabet) Size() int { return len(a.names) }

// UserSize returns σ, the number of distinct user symbols.
func (a *Alphabet) UserSize() int { return len(a.names) - 2 }

// Names returns the display names of all user symbols in id order.
func (a *Alphabet) Names() []string {
	out := make([]string, 0, a.UserSize())
	for _, n := range a.names[FirstUser:] {
		out = append(out, n)
	}
	return out
}
