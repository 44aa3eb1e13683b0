package main

import (
	"fmt"
	"slices"
	"strings"
)

// accepts is the benchmark's own reference matcher: a position-set
// simulation over the generator's model tree, independent of every engine
// in the code under test. It is quadratic at worst and used only on the
// short child sequences the generator mutates.
func accepts(m *model, word []string) bool {
	start := make([]bool, len(word)+1)
	start[0] = true
	return ends(m, word, start)[len(word)]
}

// ends returns the set of word positions reachable after matching m from
// any position in from.
func ends(m *model, word []string, from []bool) []bool {
	out := make([]bool, len(from))
	switch m.op {
	case mSym:
		for i, ok := range from {
			if ok && i < len(word) && word[i] == m.name {
				out[i+1] = true
			}
		}
	case mSeq:
		cur := from
		for _, k := range m.kids {
			cur = ends(k, word, cur)
		}
		copy(out, cur)
	case mChoice:
		for _, k := range m.kids {
			orInto(out, ends(k, word, from))
		}
	case mOpt:
		copy(out, from)
		orInto(out, ends(m.kids[0], word, from))
	default:
		lo, hi := 0, -1
		switch m.op {
		case mPlus:
			lo = 1
		case mCount:
			lo, hi = m.min, m.max
		}
		cur := from
		if lo == 0 {
			copy(out, from)
		}
		for n := 1; hi < 0 || n <= hi; n++ {
			next := ends(m.kids[0], word, cur)
			if n >= lo {
				if hi < 0 && !addsTo(out, next) && n > lo {
					break
				}
				orInto(out, next)
			}
			if !anySet(next) {
				break
			}
			cur = next
		}
	}
	return out
}

func orInto(dst, src []bool) {
	for i, ok := range src {
		if ok {
			dst[i] = true
		}
	}
}

// addsTo reports whether src holds a position dst lacks.
func addsTo(dst, src []bool) bool {
	for i, ok := range src {
		if ok && !dst[i] {
			return true
		}
	}
	return false
}

func anySet(s []bool) bool {
	for _, ok := range s {
		if ok {
			return true
		}
	}
	return false
}

// checkWarnings compares a registration's warnings with the elements
// built nondeterministic: exactly one warning per such element, naming it
// (DTD warnings name the element, XSD warnings its type T_<element>).
func checkWarnings(s *schema, warnings []string) error {
	var got []string
	for _, w := range warnings {
		var name string
		if s.kind == "dtd" {
			name, _, _ = strings.Cut(strings.TrimPrefix(w, "element "), ":")
		} else {
			name, _, _ = strings.Cut(strings.TrimPrefix(w, "type T_"), ":")
		}
		got = append(got, name)
	}
	want := slices.Clone(s.nondet)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("schema %s: warnings name %v, want the nondeterministic models %v", s.name, got, want)
	}
	return nil
}
