package obs

import (
	"fmt"
	"io"
	"strconv"
)

// Family is one metric family of a Prometheus text exposition page (version
// 0.0.4): its name, TYPE ("counter", "gauge" or "histogram"), HELP text and
// series. WriteFamilies is the one place a page is formatted; a family is a
// row in its owner's table.
type Family struct {
	Name, Type, Help string
	Series           []Series
}

// Series is one series of a family. Labels is a pre-formatted label body
// like `path="/v1/search"`, or empty. A counter or gauge series is its
// Value. A histogram series has Buckets — per-bucket observation counts over
// BucketBounds plus the +Inf overflow, not cumulative — and Value, the
// observations' summed seconds; its _count is the buckets' total.
type Series struct {
	Labels  string
	Value   float64
	Buckets []int64
}

type number interface {
	~int | ~int64 | ~uint32 | ~uint64 | ~float64
}

// Counter is a counter family of one unlabelled series.
func Counter[T number](name, help string, v T) Family {
	return Family{name, "counter", help, []Series{{Value: float64(v)}}}
}

// Gauge is a gauge family of one unlabelled series.
func Gauge[T number](name, help string, v T) Family {
	return Family{name, "gauge", help, []Series{{Value: float64(v)}}}
}

// Flag is a gauge family whose one series is 1 when b holds, else 0.
func Flag(name, help string, b bool) Family {
	v := 0
	if b {
		v = 1
	}
	return Gauge(name, help, v)
}

// Labelled is a family of one series per value of one label: the series
// label=values[i] has vs[i].
func Labelled[T number](name, typ, help, label string, values []string, vs ...T) Family {
	f := Family{Name: name, Type: typ, Help: help, Series: make([]Series, len(vs))}
	for i, v := range vs {
		f.Series[i] = Series{Labels: fmt.Sprintf("%s=%q", label, values[i]), Value: float64(v)}
	}
	return f
}

// Series renders s as a histogram series under the given label body.
func (s HistogramSnapshot) Series(labels string) Series {
	return Series{Labels: labels, Value: float64(s.SumNanos) / 1e9, Buckets: s.Counts[:]}
}

// WriteFamilies renders families in order: each one's # HELP and # TYPE
// lines, then its samples. A histogram series renders as cumulative
// _bucket lines ending in le="+Inf", then _sum and _count.
func WriteFamilies(w io.Writer, fams ...Family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Series {
			if f.Type != "histogram" {
				fmt.Fprintf(w, "%s%s %s\n", f.Name, braced(s.Labels), formatValue(s.Value))
				continue
			}
			le := s.Labels
			if le != "" {
				le += ","
			}
			cum := int64(0)
			for i, c := range s.Buckets {
				cum += c
				bound := "+Inf"
				if i < NumBounds {
					bound = strconv.FormatFloat(float64(bound0<<i)/1e9, 'g', -1, 64)
				}
				fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", f.Name, le, bound, cum)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, braced(s.Labels), formatValue(s.Value))
			fmt.Fprintf(w, "%s_count%s %d\n", f.Name, braced(s.Labels), cum)
		}
	}
}

// braced wraps a non-empty label body in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatValue renders a sample value in its shortest exact decimal form,
// so integral values print as integers.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
