package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is a set of timings or values in one unit.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank p-quantile (0 < p <= 1): the smallest value
// with at least a p share of the samples at or below it. NaN when empty.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := s.sorted()
	return xs[rankIndex(len(xs), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond is how many samples lie strictly after the nearest-rank
// p-quantile's position.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailPercentiles are the candidates tail reports, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tail is the highest candidate percentile that has at least ten samples
// beyond it; ok is false when even the median has fewer.
func (s samples) tail() (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(len(s), p) >= 10 {
			return p, s.quantile(p), true
		}
	}
	return 0, 0, false
}

// summary renders "median X, pNN Y (n=N)" with the highest percentile that
// has at least ten samples beyond it.
func (s samples) summary(unit string) string {
	if len(s) == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("median %.4g %s", s.median(), unit)
	if p, v, ok := s.tail(); ok && p > 0.5 {
		out += fmt.Sprintf(", p%g %.4g %s", p*100, v, unit)
	}
	return out + fmt.Sprintf(" (n=%d)", len(s))
}

// geomean is the geometric mean of positive values; NaN when empty or when
// any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, so the steadiness report reads the same
// spreads an external check computes. Needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, false
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, n-1] before taking delta.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// ratio is num/den with its base counts kept for printing.
type ratio struct{ num, den int64 }

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return float64(r.num) / float64(r.den)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%d/%d)", r.value(), r.num, r.den)
}
