package main

import (
	"math"
	"strings"
	"testing"
)

// TestRunFigure regenerates cheap figures at tiny scale and checks the
// report's shape: a header line plus the rows each figure prints.
func TestRunFigure(t *testing.T) {
	for figure, want := range map[string][]string{
		"fig4":   {"NOOPT", "OPT"},
		"table3": {"string-matching", "schema-matching", "inclusion-dependency", "postings="},
	} {
		var buf strings.Builder
		if err := run(figure, 0.02, 1, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) < 2 {
			t.Fatalf("expected header plus rows, got:\n%s", out)
		}
		if !strings.HasPrefix(lines[0], "figure") {
			t.Fatalf("missing header: %q", lines[0])
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %s:\n%s", figure, w, out)
			}
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf strings.Builder
	if err := run("fig99", 0.02, 1, &buf); err == nil {
		t.Fatal("unknown figure should fail")
	}
}

// TestRunBadScale holds run to refusing a scale that names no corpus: one
// that is not a positive number, and one too small for any set.
func TestRunBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), 0.0001} {
		var buf strings.Builder
		if err := run("fig4", scale, 1, &buf); err == nil {
			t.Errorf("scale %v ran:\n%s", scale, buf.String())
		}
	}
}
