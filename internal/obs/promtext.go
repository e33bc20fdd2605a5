package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements a minimal parser and conformance validator for the
// Prometheus text exposition format (version 0.0.4) — just enough to prove
// a /metrics page is scrape-able: legal metric and label names, HELP/TYPE
// present for every family, histogram buckets cumulative with a terminal
// +Inf, and _sum/_count consistent. The server's conformance test and the
// promcheck CLI both run every emitted family through it, so the rendering
// (WriteFamilies) can never silently drift into something Prometheus would
// drop.

// MetricFamily is one family of samples sharing a base name.
type MetricFamily struct {
	// Name is the family's base name (for histograms, without the
	// _bucket/_sum/_count suffix).
	Name string
	// Help and Type come from the family's # HELP and # TYPE lines.
	Help string
	Type string
	// Samples are the family's sample lines in input order.
	Samples []Sample
}

// Sample is one sample line.
type Sample struct {
	// Name is the full sample name (including _bucket/_sum/_count).
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses a Prometheus text exposition page into its families,
// in input order. It fails on lines that are neither comments, blank, nor
// well-formed samples, on malformed label syntax, and on illegal metric or
// label names — the things that make a scrape fail outright.
func ParseText(r io.Reader) ([]*MetricFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var fams []*MetricFamily
	byName := make(map[string]*MetricFamily)
	family := func(base string) *MetricFamily {
		if f, ok := byName[base]; ok {
			return f
		}
		f := &MetricFamily{Name: base}
		byName[base] = f
		fams = append(fams, f)
		return f
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			f := family(name)
			if f.Help != "" {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			f.Help = help
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, typ, name)
			}
			f := family(name)
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if len(f.Samples) > 0 {
				return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			f.Type = typ
		case strings.HasPrefix(line, "#"):
			continue // free-form comment
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			base := baseName(s.Name, byName)
			family(base).Samples = append(family(base).Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// baseName strips a histogram/summary suffix when the stripped name is a
// declared family (so a plain counter named x_count still parses).
func baseName(name string, byName map[string]*MetricFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f, exists := byName[base]; exists && (f.Type == "histogram" || f.Type == "summary") {
				return base
			}
		}
	}
	return name
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample: %q", line)
	}
	s.Name = rest[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("illegal metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set: %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "" {
		return s, fmt.Errorf("missing value: %q", line)
	}
	// A timestamp may follow the value; silkmothd never emits one, but
	// accept it for generality.
	if sp := strings.IndexByte(valStr, ' '); sp >= 0 {
		valStr = valStr[:sp]
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valStr, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `k1="v1",k2="v2"` into dst, validating names and
// unescaping values.
func parseLabels(body string, dst map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", body)
		}
		name := body[:eq]
		if !validLabelName(name) {
			return fmt.Errorf("illegal label name %q", name)
		}
		body = body[eq+1:]
		if body == "" || body[0] != '"' {
			return fmt.Errorf("label %s: value must be quoted", name)
		}
		body = body[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(body); i++ {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return fmt.Errorf("label %s: dangling escape", name)
				}
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					return fmt.Errorf("label %s: unknown escape \\%c", name, body[i])
				}
				continue
			}
			if c == '"' {
				body = body[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := dst[name]; dup {
			return fmt.Errorf("duplicate label %s", name)
		}
		dst[name] = val.String()
		body = strings.TrimPrefix(body, ",")
	}
	return nil
}

// ValidMetricName reports whether s is a legal exposition-format metric
// family name ([a-zA-Z_:][a-zA-Z0-9_:]*). It is the same predicate the
// parser applies to scraped families, exported so the metricnames static
// analyzer enforces it on the literals that produce them.
func ValidMetricName(s string) bool {
	return validMetricName(s)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Validate checks parsed families for scrape-ability: every family has
// HELP and TYPE, no duplicate sample (same name and label set), and every
// histogram family satisfies the bucket invariants — counts cumulative
// and non-decreasing in le order, a terminal +Inf bucket, and _sum/_count
// present with _count equal to the +Inf bucket — per labeled series.
func Validate(fams []*MetricFamily) error {
	for _, f := range fams {
		if f.Help == "" {
			return fmt.Errorf("family %s: missing HELP", f.Name)
		}
		if f.Type == "" {
			return fmt.Errorf("family %s: missing TYPE", f.Name)
		}
		seen := make(map[string]bool)
		for _, s := range f.Samples {
			// Full label set including le: bucket lines of one series are
			// distinct samples.
			id := s.Name + "|" + fullLabelID(s.Labels)
			if seen[id] {
				return fmt.Errorf("family %s: duplicate sample %s{%s}", f.Name, s.Name, fullLabelID(s.Labels))
			}
			seen[id] = true
		}
		if f.Type == "histogram" {
			if err := validateHistogram(f); err != nil {
				return fmt.Errorf("family %s: %v", f.Name, err)
			}
		}
	}
	return nil
}

// labelID renders labels in sorted order as a stable series identity,
// excluding the le bucket label (all buckets of one histogram series share
// an identity). fullLabelID keeps le, identifying individual sample lines.
func labelID(labels map[string]string) string { return renderLabels(labels, false) }

func fullLabelID(labels map[string]string) string { return renderLabels(labels, true) }

func renderLabels(labels map[string]string, keepLE bool) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" && !keepLE {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// histSeries accumulates one labeled histogram series during validation.
type histSeries struct {
	buckets []bucket // in input order
	sum     float64
	hasSum  bool
	count   float64
	hasCnt  bool
}

type bucket struct {
	le  float64
	cum float64
}

func validateHistogram(f *MetricFamily) error {
	series := make(map[string]*histSeries)
	get := func(labels map[string]string) *histSeries {
		id := labelID(labels)
		if s, ok := series[id]; ok {
			return s
		}
		s := &histSeries{}
		series[id] = s
		return s
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("bad le %q: %v", leStr, err)
			}
			hs := get(s.Labels)
			hs.buckets = append(hs.buckets, bucket{le: le, cum: s.Value})
		case f.Name + "_sum":
			hs := get(s.Labels)
			hs.sum, hs.hasSum = s.Value, true
		case f.Name + "_count":
			hs := get(s.Labels)
			hs.count, hs.hasCnt = s.Value, true
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for id, hs := range series {
		name := id
		if name == "" {
			name = "(no labels)"
		}
		if len(hs.buckets) == 0 {
			return fmt.Errorf("series %s: no buckets", name)
		}
		for i := 1; i < len(hs.buckets); i++ {
			if hs.buckets[i].le <= hs.buckets[i-1].le {
				return fmt.Errorf("series %s: bucket bounds not increasing (%g after %g)",
					name, hs.buckets[i].le, hs.buckets[i-1].le)
			}
			if hs.buckets[i].cum < hs.buckets[i-1].cum {
				return fmt.Errorf("series %s: bucket counts not cumulative (%g after %g at le=%g)",
					name, hs.buckets[i].cum, hs.buckets[i-1].cum, hs.buckets[i].le)
			}
		}
		last := hs.buckets[len(hs.buckets)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("series %s: final bucket is le=%g, want +Inf", name, last.le)
		}
		if !hs.hasSum {
			return fmt.Errorf("series %s: missing _sum", name)
		}
		if !hs.hasCnt {
			return fmt.Errorf("series %s: missing _count", name)
		}
		if hs.count != last.cum {
			return fmt.Errorf("series %s: _count %g != +Inf bucket %g", name, hs.count, last.cum)
		}
		if hs.count == 0 && hs.sum != 0 {
			return fmt.Errorf("series %s: zero _count with nonzero _sum %g", name, hs.sum)
		}
	}
	return nil
}
