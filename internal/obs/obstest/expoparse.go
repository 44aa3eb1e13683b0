// Package obstest is a strict parser for the Prometheus text exposition
// format, used by the tests that verify /metrics output (format validity,
// bucket monotonicity, count/+Inf agreement) — the consumer side of the
// obs encoder (obs.Registry.WritePrometheus). Only tests import it, so it
// ships in no binary.
package obstest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"dregex/internal/obs"
)

// Sample is one parsed exposition line: a metric name, its label set, and
// the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed /metrics payload.
type Exposition struct {
	// Help and Type record the # HELP / # TYPE headers by family name.
	Help, Type map[string]string
	Samples    []Sample
}

// Get returns the sample for name with exactly the given labels
// (name=value pairs, order-insensitive); ok reports whether it exists.
func (e *Exposition) Get(name string, labels ...obs.Label) (float64, bool) {
	want := map[string]string{}
	for _, l := range labels {
		want[l.Name] = l.Value
	}
	for _, s := range e.Samples {
		if s.Name != name || len(s.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ParseExposition parses Prometheus text format strictly: legal metric and
// label names, parseable values, # TYPE values from the known set, and
// samples only under a previously declared family (suffix samples
// _bucket/_sum/_count attach to their histogram family).
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Help: map[string]string{}, Type: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: illegal metric name %q", lineNo, name)
			}
			rest := ""
			if len(fields) == 4 {
				rest = fields[3]
			}
			if fields[1] == "HELP" {
				e.Help[name] = rest
			} else {
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, rest)
				}
				e.Type[name] = rest
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if familyOf(s.Name, e.Type) == "" {
			return nil, fmt.Errorf("line %d: sample %q under no declared family", lineNo, s.Name)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// familyOf resolves a sample name to its declared family ("" if none):
// itself, or — for histogram sub-series — the name minus a known suffix.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !metricNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("illegal metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := strings.LastIndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label in %q", body)
		}
		name := body[:eq]
		if !labelNameRe.MatchString(name) {
			return fmt.Errorf("illegal label name %q", name)
		}
		if len(body) < eq+2 || body[eq+1] != '"' {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		val, rest, err := scanQuoted(body[eq+2:])
		if err != nil {
			return err
		}
		if _, dup := into[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		into[name] = val
		body = strings.TrimPrefix(rest, ",")
	}
	return nil
}

// scanQuoted consumes an escaped label value up to its closing quote.
func scanQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", errors.New("dangling escape in label value")
			}
			i++
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", errors.New("unterminated label value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return 0, errors.New("+Inf sample value outside le label")
	case "":
		return 0, errors.New("missing sample value")
	}
	return strconv.ParseFloat(s, 64)
}

// CheckHistograms validates every histogram family in e: cumulative
// buckets must be non-decreasing in le order, and the +Inf bucket must
// equal the _count sample of the same series.
func (e *Exposition) CheckHistograms() error {
	type key struct{ name, labels string }
	// Collect buckets per series in sample order (encoder emits ascending
	// le), and counts.
	buckets := map[key][]Sample{}
	counts := map[key]float64{}
	for _, s := range e.Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			k := key{strings.TrimSuffix(s.Name, "_bucket"), labelsKeyWithout(s.Labels, "le")}
			buckets[k] = append(buckets[k], s)
		}
		if strings.HasSuffix(s.Name, "_count") {
			base := strings.TrimSuffix(s.Name, "_count")
			if e.Type[base] == "histogram" {
				counts[key{base, labelsKeyWithout(s.Labels, "")}] = s.Value
			}
		}
	}
	for k, bs := range buckets {
		prevLe := -1.0
		prev := -1.0
		sawInf := false
		for _, b := range bs {
			le := b.Labels["le"]
			if le == "" {
				return fmt.Errorf("%s: bucket without le label", k.name)
			}
			bound := 0.0
			if le == "+Inf" {
				sawInf = true
				bound = prevLe + 1 // ordering check only
			} else {
				var err error
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("%s: bad le %q: %v", k.name, le, err)
				}
			}
			if bound <= prevLe && prevLe >= 0 {
				return fmt.Errorf("%s: le bounds not increasing (%v after %v)", k.name, bound, prevLe)
			}
			if b.Value < prev {
				return fmt.Errorf("%s: cumulative bucket counts decrease (%v after %v)", k.name, b.Value, prev)
			}
			prevLe, prev = bound, b.Value
			if sawInf {
				if c, ok := counts[key{k.name, k.labels}]; ok && b.Value != c {
					return fmt.Errorf("%s: +Inf bucket %v != count %v", k.name, b.Value, c)
				}
			}
		}
		if !sawInf {
			return fmt.Errorf("%s: histogram series without +Inf bucket", k.name)
		}
	}
	return nil
}

// labelsKeyWithout renders a label map (minus one label) as a stable key.
func labelsKeyWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	// insertion-order independence: small maps, simple sort
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}
