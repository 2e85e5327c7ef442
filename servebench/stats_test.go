package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// Nearest rank: the p-th percentile of 1..n is ceil(p/100*n).
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n             int
		p50, p95, p99 float64
	}{
		{1, 1, 1, 1},
		{2, 1, 2, 2},
		{20, 10, 19, 20},
		{100, 50, 95, 99},
		{101, 51, 96, 100},
	}
	for _, c := range cases {
		xs := seq(c.n)
		for _, q := range []struct{ p, want float64 }{{50, c.p50}, {95, c.p95}, {99, c.p99}} {
			if got := percentile(xs, q.p); got != q.want {
				t.Errorf("n=%d p%v = %v, want %v", c.n, q.p, got, q.want)
			}
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0, 1, 4, 9, 16, 25, 36, 49, 64, 81}, 3.25, 52.75},
		{[]float64{1.5, 2.25, 9, 4, 4, 7, 0.5, 3, 3, 8, 1}, 1.5, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{0, 1, 4, 9, 16, 25, 36, 49, 64, 81}); math.Abs(got-(52.75-3.25)/20.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// runs returns n values around base, each off by a small step.
func runs(base float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + 0.001*float64(i%3-1))
	}
	return xs
}

func paired(p, c []float64) [][2]float64 {
	out := make([][2]float64, len(p))
	for i := range p {
		out[i] = [2]float64{p[i], c[i]}
	}
	return out
}

func TestVerdict(t *testing.T) {
	mk := func(p, c []float64, lower bool, bound float64) comparison {
		return comparison{parent: p, change: c, pairs: paired(p, c), lowerIsBetter: lower, bound: bound}
	}
	wide := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	cases := []struct {
		name string
		c    comparison
		want string
	}{
		{"clear gain on ten pairs", mk(runs(100, 10), runs(80, 10), true, 0.1), improved},
		{"higher is better", mk(runs(100, 10), runs(120, 10), false, 0.1), improved},
		{"gain on too few pairs", mk(runs(100, 5), runs(80, 5), true, 0.1), noWorse},
		{"within the bound", mk(runs(100, 10), runs(105, 10), true, 0.1), noWorse},
		{"worse beyond the bound", mk(runs(100, 10), runs(120, 10), true, 0.1), regressed},
		{"higher is better, worse", mk(runs(100, 10), runs(80, 10), false, 0.1), regressed},
		{"spread wider than the bound", mk(wide, wide, true, 0.1), unresolved},
		{"wide but separated", mk(wide, runs(40, 10), true, 0.1), improved},
	}
	for _, c := range cases {
		if got := c.c.verdict(); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Ties count for neither side: nine wins and a tie in ten pairs is a
	// 9/10 win rate.
	p, c := runs(100, 10), runs(80, 10)
	c[3] = p[3]
	cmp := mk(p, c, true, 0.1)
	if cmp.wins() != 9 || cmp.verdict() != improved {
		t.Errorf("9 wins + 1 tie: wins %d verdict %q", cmp.wins(), cmp.verdict())
	}
	c[4] = p[4] * 1.01
	if cmp = mk(p, c, true, 0.1); cmp.wins() != 8 || cmp.verdict() == improved {
		t.Errorf("8 wins of 10: wins %d verdict %q", cmp.wins(), cmp.verdict())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "submit", StartUS: 10, EndUS: 30},
		{ID: 2, Parent: 0, Name: "submit", StartUS: 20, EndUS: 40}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "wait", StartUS: 90, EndUS: 120},  // clipped at the parent's end
	}
	got := map[string]spanTotal{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	// Children cover [10,40] and [90,100] of the round: 40 of its 100 us.
	if r := got["round"]; !near(r.SelfS, 60e-6) || !near(r.TotalS, 100e-6) {
		t.Errorf("round: self %v total %v, want 60us/100us", r.SelfS, r.TotalS)
	}
	if s := got["submit"]; s.Count != 2 || !near(s.SelfS, 40e-6) {
		t.Errorf("submit: %+v", s)
	}
}
