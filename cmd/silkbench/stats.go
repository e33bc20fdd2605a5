package main

import (
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of xs,
// which must be sorted ascending and non-empty.
func percentile[T int64 | float64](xs []T, p float64) T {
	rank := int(p*float64(len(xs)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering the caller's slice; 0 when empty.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[m])
	}
	return (float64(s[m-1]) + float64(s[m])) / 2
}

// metricValue is one reported metric with the samples behind it: rounds of
// an untraced run, builds for setup_s, queries of the traced sample.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// summarize reduces samples to their median, reported as the value, with
// min and max.
func summarize(unit string, xs []float64) metricValue {
	if len(xs) == 0 {
		return metricValue{Unit: unit}
	}
	m := median(xs)
	return metricValue{
		Value:   m,
		Unit:    unit,
		Median:  m,
		Min:     slices.Min(xs),
		Max:     slices.Max(xs),
		Samples: len(xs),
	}
}

// single wraps a value measured once.
func single(unit string, v float64) metricValue {
	return metricValue{Value: v, Unit: unit, Median: v, Min: v, Max: v, Samples: 1}
}
