package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the highest of p99, p95 and p90 that still has at least
// ten samples beyond it (p99 from 1000 samples on); below 100 samples no
// percentile qualifies and the median stands in.
func tailQuantile(n int) (q float64, label string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 200:
		return 0.95, "p95"
	case n >= 100:
		return 0.90, "p90"
	default:
		return 0.5, "p50"
	}
}

// quartiles returns Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, which is what the steadiness rule is defined with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
