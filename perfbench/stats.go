package main

import (
	"math"
	"slices"
	"time"
)

// samples is a list of observed durations. A failed operation is recorded
// as +Inf, so it counts as a miss at every percentile it reaches.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())) }
func (s *samples) fail()               { *s = append(*s, math.Inf(1)) }

// quantile is the nearest-rank q-quantile (0 < q ≤ 1); 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := slices.Clone(s)
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

// ms and us convert a nanosecond quantile.
func (s samples) ms(q float64) float64 { return s.quantile(q) / 1e6 }
func (s samples) us(q float64) float64 { return s.quantile(q) / 1e3 }

// median of plain values, the middle one or the mean of the middle two,
// as Python's statistics.median gives it; 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is how
// run-to-run spread is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive": m = n+1, j clamped
		// to 1..n-1, linear interpolation in exact integer steps.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
