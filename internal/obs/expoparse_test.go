package obs_test

import (
	"strings"
	"testing"

	"dregex/internal/obs/obstest"
)

// TestParseExpositionErrors locks the strict-parser rejections: every
// malformed exposition shape fails with a message naming the offense,
// rather than being silently skipped — the parser is the test suite's
// oracle for /metrics output, so leniency here would mask encoder bugs.
func TestParseExpositionErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"malformed comment", "# BOGUS x y\n", "malformed comment"},
		{"comment too short", "# HELP\n", "malformed comment"},
		{"illegal family name", "# TYPE 9bad counter\n", "illegal metric name"},
		{"unknown type", "# TYPE m histo\n", "unknown TYPE"},
		{"sample without family", "m_total 1\n", "under no declared family"},
		{"bucket without histogram family", "# TYPE m counter\nm_bucket{le=\"1\"} 1\n", "under no declared family"},
		{"sample without value", "# TYPE m counter\nm\n", "malformed sample"},
		{"illegal sample name", "# TYPE m counter\n1m 2\n", "illegal metric name"},
		{"unterminated label set", "# TYPE m counter\nm{a=\"1\" 2\n", "unterminated label set"},
		{"label without equals", "# TYPE m counter\nm{a} 2\n", "malformed label"},
		{"illegal label name", "# TYPE m counter\nm{9a=\"1\"} 2\n", "illegal label name"},
		{"unquoted label value", "# TYPE m counter\nm{a=1} 2\n", "unquoted label value"},
		{"duplicate label", "# TYPE m counter\nm{a=\"1\",a=\"2\"} 2\n", "duplicate label"},
		{"unterminated label value", "# TYPE m counter\nm{a=\"1} 2\n", "unterminated label"},
		{"dangling escape", "# TYPE m counter\nm{a=\"x\\} 2\n", "dangling escape"},
		{"unknown escape", "# TYPE m counter\nm{a=\"x\\t\"} 2\n", "unknown escape"},
		{"missing value after labels", "# TYPE m counter\nm{a=\"1\"} \n", "missing sample value"},
		{"bare plus-inf value", "# TYPE m counter\nm +Inf\n", "+Inf sample value"},
		{"unparseable value", "# TYPE m counter\nm notanumber\n", "invalid syntax"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := obstest.ParseExposition(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseExposition(%q) succeeded, want error containing %q", tc.in, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseExposition(%q) error %q does not mention %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestParseExpositionErrorLine checks errors carry the 1-based line number
// of the offending line, counting blank and comment lines.
func TestParseExpositionErrorLine(t *testing.T) {
	in := "# TYPE m counter\n\nm 1\nm bad\n"
	_, err := obstest.ParseExposition(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4:") {
		t.Fatalf("want error on line 4, got %v", err)
	}
}

// TestCheckHistogramsErrors locks the consistency checks layered on a
// well-formed parse: bucket ordering, cumulative monotonicity, the
// mandatory +Inf bucket, and +Inf/_count agreement.
func TestCheckHistogramsErrors(t *testing.T) {
	const hdr = "# TYPE h histogram\n"
	cases := []struct {
		name, in, wantErr string
	}{
		{
			"out-of-order buckets",
			hdr + "h_bucket{le=\"5\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\n",
			"le bounds not increasing",
		},
		{
			"duplicate le bound",
			hdr + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\n",
			"le bounds not increasing",
		},
		{
			"decreasing cumulative counts",
			hdr + "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
			"cumulative bucket counts decrease",
		},
		{
			"missing +Inf bucket",
			hdr + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\n",
			"without +Inf bucket",
		},
		{
			"bucket without le",
			hdr + "h_bucket{x=\"1\"} 1\n",
			"bucket without le label",
		},
		{
			"bad le bound",
			hdr + "h_bucket{le=\"wat\"} 1\n",
			"bad le",
		},
		{
			"inf bucket disagrees with count",
			hdr + "h_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 9\n",
			"!= count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := obstest.ParseExposition(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ParseExposition: %v", err)
			}
			err = e.CheckHistograms()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckHistograms(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestCheckHistogramsLabelledSeries: monotonicity is tracked per label set,
// so interleaved series with independent counts stay legal.
func TestCheckHistogramsLabelledSeries(t *testing.T) {
	in := "# TYPE h histogram\n" +
		"h_bucket{op=\"a\",le=\"1\"} 9\nh_bucket{op=\"a\",le=\"+Inf\"} 9\n" +
		"h_bucket{op=\"b\",le=\"1\"} 2\nh_bucket{op=\"b\",le=\"+Inf\"} 4\n" +
		"h_count{op=\"a\"} 9\nh_count{op=\"b\"} 4\n"
	e, err := obstest.ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if err := e.CheckHistograms(); err != nil {
		t.Fatalf("CheckHistograms: %v", err)
	}
}
