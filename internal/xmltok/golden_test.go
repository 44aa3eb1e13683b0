package xmltok

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The golden file pins the tokenizer's observable behaviour on a few
// thousand seeded inputs: every token's kind, offset, depth, name,
// attributes and resolved bytes, and the first error with its message and
// position. It was recorded from the multi-pass tokenizer that preceded
// the single-pass scan, so it is the oracle for rewrites of the scanning
// code. Regenerate it only for an intended behaviour change:
//
//	go test ./internal/xmltok -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden.txt.gz from the current tokenizer")

const goldenPath = "testdata/golden.txt.gz"

// goldenEntities extends the fuzz entity map with replacement texts that
// are illegal or invalid UTF-8 on their own, so the golden inputs reach
// the replacement-text checks (hi and lo combine into a valid "é").
var goldenEntities = func() map[string]string {
	m := map[string]string{"ctl": "a\x01b", "fffe": "￾", "hi": "\xc3", "lo": "\xa9"}
	for k, v := range fuzzEntities {
		m[k] = v
	}
	return m
}()

// goldenSeeds are the starting documents; mutations of them make up the
// rest of the golden inputs.
var goldenSeeds = []string{
	"<a>x &amp; y</a>",
	"<r>\n  <t1>one two</t1>\n  <t2>x &amp; y &lt;z&gt;</t2>\n</r>",
	"<a b='1 &amp; 2' c=\"&e;&#65;\" d='x\r\ny'>t</a>",
	"<a>\x01]]></a>",
	"<a>]]>\x01</a>",
	"<a>x&amp;\x01y</a>",
	"<a>x\r\x01y</a>",
	"<a>x\x01&amp;y</a>",
	"<a>&#0;</a>",
	"<a>&#x0;x&nosuch;</a>",
	"<a>&ctl;</a>",
	"<a>&fffe;</a>",
	"<a>&hi;&lo;</a>",
	"<a>&hi;\xa9</a>",
	"<a>\r\xc3&lo;</a>",
	"<a>\xc3&lo;</a>",
	"<a v='&ctl;'/>",
	"<a v='&hi;&lo;'/>",
	"<a>&#xD800;&#xDFFF;&#55296;</a>",
	"<a>&#x10FFFF;&#xFFFE;&#x1F600;</a>",
	"<a v='a\r\nb\rc'/>",
	"<a v=\"&#13;&#10;\r\n\"/>",
	"<a></a  >",
	"<a></ab>",
	"<ab></a>",
	"<a></a",
	"<a></a x>",
	"<a></ a>",
	"<a><b></b ></a>",
	"<p:a><p:b/></p:a>",
	"<a>x]]y]>z]]</a>",
	"<a>]]&amp;></a>",
	"<a v='<'/>",
	"<a v='x&amp;<'/>",
	"<a v='x",
	"<a v='x&bad",
	"<a>&amp</a>",
	"<a>&#;&#x;&#xg;</a>",
	"<a>&#99999999999999999999;</a>",
	"<a>é\xe2\x82\xac\xf0\x9f\x98\x80\xef\xbf\xbe</a>",
	"<a>\xed\xa0\x80</a>",
	"<a>\xc3</a>",
	"<a>x\x7fy\x1fz</a>",
	"<![CDATA[x]]>",
	"<a><![CDATA[a\r\nb&amp;<]]]]></a>",
	"<a><![CDATA[\x01]]></a>",
	"<a><![CDATA[\r\x01]]></a>",
	"<!DOCTYPE a [<!ENTITY e 'v'><!-- c -->]><a>&e;</a>",
	"<?xml version='1.0' encoding='UTF-8'?><a/>",
	"<?pi x?><!--c--><a/>",
	"text only",
	"\r\n",
	"<a>\n</a>\n",
}

// goldenFragments are spliced into seeds by the mutator.
var goldenFragments = []string{
	"&amp;", "&lt;", "&e;", "&uni;", "&cr;", "&amps;", "&empty;", "&ctl;",
	"&fffe;", "&hi;", "&lo;", "&nosuch;", "&#0;", "&#65;", "&#x41;",
	"&#xD800;", "&#x110000;", "&#13;", "&", ";", "&#", "]]>", "]]", "]",
	"\r\n", "\r", "\n", "<", ">", "</a>", "</b>", "</a >", "<b>", "<b/>",
	"'", "\"", " x='1'", " y=\"&amp;\"", "\x01", "\x00", "\xff", "\xc3",
	"\xa9", "é", "￾", "<![CDATA[", "<!--", "-->", "<?x ", "?>", " ",
}

// rng is splitmix64: a fixed, dependency-free generator so the golden
// inputs do not depend on the standard library's random sequences.
type rng uint64

func (r *rng) intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// goldenInputs returns the seeds (the golden and fuzz seeds and the
// committed FuzzXMLTok corpus) followed by their mutations.
func goldenInputs(t *testing.T) []string {
	seeds := append(append([]string(nil), goldenSeeds...), fuzzSeeds...)
	const corpus = "testdata/fuzz/FuzzXMLTok"
	files, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(corpus + "/" + f.Name())
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		seeds = append(seeds, s)
	}
	inputs := append([]string(nil), seeds...)
	r := rng(1)
	for len(inputs) < 6000 {
		s := []byte(seeds[r.intn(len(seeds))])
		for n := 1 + r.intn(3); n > 0; n-- {
			at := 0
			if len(s) > 0 {
				at = r.intn(len(s) + 1)
			}
			switch r.intn(4) {
			case 0, 1: // insert a fragment
				f := goldenFragments[r.intn(len(goldenFragments))]
				s = append(s[:at:at], append([]byte(f), s[at:]...)...)
			case 2: // delete up to 3 bytes
				end := min(len(s), at+1+r.intn(3))
				s = append(s[:at:at], s[end:]...)
			case 3: // splice the tail of another seed
				o := seeds[r.intn(len(seeds))]
				s = append(s[:at:at], o[r.intn(len(o)+1):]...)
			}
		}
		inputs = append(inputs, string(s))
	}
	return inputs
}

// goldenRender tokenizes data, reading every token's text and attribute
// values, and renders one line per token plus a final EOF or error line.
func goldenRender(tok *Tokenizer, data []byte) string {
	var b strings.Builder
	tok.Reset(data)
	tok.SetEntities(goldenEntities)
	for {
		k, err := tok.Next()
		if err == io.EOF {
			b.WriteString("EOF\n")
			return b.String()
		}
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				fmt.Fprintf(&b, "ERR %v\n", err)
				return b.String()
			}
			fmt.Fprintf(&b, "ERR %d:%d@%d %q\n", se.Line, se.Col, se.Offset, se.Msg)
			return b.String()
		}
		fmt.Fprintf(&b, "%v @%d d%d", k, tok.Offset(), tok.Depth())
		switch k {
		case StartElement:
			fmt.Fprintf(&b, " %q self=%v", tok.Name(), tok.SelfClosing())
			for i := 0; i < tok.AttrCount(); i++ {
				fmt.Fprintf(&b, " %q@%d=%q", tok.AttrName(i), tok.AttrNameOffset(i), tok.AttrValue(i))
			}
		case EndElement:
			fmt.Fprintf(&b, " %q", tok.Name())
		case ProcInst:
			fmt.Fprintf(&b, " %q %q", tok.Name(), tok.Text())
		default:
			fmt.Fprintf(&b, " %q", tok.Text())
		}
		b.WriteByte('\n')
	}
}

// TestGolden replays the golden inputs and compares every rendering byte
// for byte; it also checks that leaving text unread changes nothing the
// scan reports. Each record is a "# <quoted input>" line followed by the
// rendering.
func TestGolden(t *testing.T) {
	var tok Tokenizer
	if *update {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		for _, in := range goldenInputs(t) {
			fmt.Fprintf(zw, "# %s\n%s", strconv.Quote(in), goldenRender(&tok, []byte(in)))
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(zr)
	sc.Buffer(nil, 1<<20)
	var input string
	var want strings.Builder
	records, fails := 0, 0
	check := func() {
		if records == 0 {
			return
		}
		if lazy, eager := skeleton(&tok, []byte(input), false), skeleton(&tok, []byte(input), true); lazy != eager {
			t.Errorf("input %q: reading text changes the scan\nunread: %s\nread:   %s", input, lazy, eager)
		}
		if got := goldenRender(&tok, []byte(input)); got != want.String() {
			fails++
			if fails <= 5 {
				t.Errorf("input %q\n got:\n%s want:\n%s", input, got, want.String())
			}
		}
	}
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			check()
			if input, err = strconv.Unquote(rest); err != nil {
				t.Fatalf("record %d: %v", records, err)
			}
			records++
			want.Reset()
			continue
		}
		want.WriteString(line)
		want.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	check()
	if records < 5000 {
		t.Errorf("golden file has %d records, want at least 5000", records)
	}
	if fails > 0 {
		t.Errorf("%d of %d golden records differ", fails, records)
	}
}
