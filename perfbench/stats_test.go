package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so quantile must sort
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100) // values 1..100
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := s.quantile(c.p); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(samples(nil).quantile(0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{1000, 0.99, true}, // 10 beyond p99
		{999, 0.95, true},  // only 9 beyond p99
		{100, 0.90, true},
		{40, 0.75, true},
		{20, 0.50, true},
		{19, 0, false},
	} {
		p, _, ok := seq(c.n).tail()
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: tail p=%g ok=%v, want p=%g ok=%v", c.n, p, ok, c.wantP, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond, want >= 10", c.n, p*100, beyond(c.n, p))
		}
	}
}

func TestSummaryReportsCount(t *testing.T) {
	got := seq(1000).summary("ms")
	for _, want := range []string{"median 500 ms", "p99 990 ms", "(n=1000)"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q lacks %q", got, want)
		}
	}
	if got := seq(5).summary("ms"); strings.Contains(got, ", p") || !strings.Contains(got, "(n=5)") {
		t.Errorf("summary of 5 samples = %q; want the median and count only", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %g, want 10", got)
	}
	if got := geomean([]float64{4}); got != 4 {
		t.Errorf("geomean(4) = %g, want 4", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if got := geomean(xs); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %g, want NaN", xs, got)
		}
	}
}

// The steadiness report must read the same quartiles as Python's
// statistics.quantiles(values, n=4); the expectations below are its
// outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 5, 5, 5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestRatioKeepsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.value() != 0.75 || r.String() != "0.7500 (3/4)" {
		t.Errorf("ratio{3,4} = %g %q", r.value(), r.String())
	}
	if (ratio{0, 0}).value() != 0 {
		t.Error("empty ratio should read 0")
	}
}
