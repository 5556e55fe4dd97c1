package main

import (
	"math"
	"sort"
)

// summary is a metric's distribution over the samples of one run: median,
// quartiles (Python's statistics.quantiles(n=4) exclusive method, so the
// record reads the same as the pipeline's own arithmetic) and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{Median: quantile(s, 0.5), N: len(s)}
	out.Q1, out.Q3 = out.Median, out.Median
	if len(s) >= 2 {
		out.Q1, out.Q3 = exclusiveQuartile(s, 1), exclusiveQuartile(s, 3)
	}
	return out
}

// quantile is the linear-interpolation quantile of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// exclusiveQuartile mirrors statistics.quantiles(data, n=4)[i-1],
// including its clamping of the rank into [1, len-1].
func exclusiveQuartile(s []float64, i int) float64 {
	m := len(s) + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// median of xs (0 for none).
func median(xs []float64) float64 { return summarize(xs).Median }

// percentile returns the q-quantile of xs and how many samples lie strictly
// beyond it — a tail figure is only worth reporting with at least ten.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v = quantile(s, q)
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
