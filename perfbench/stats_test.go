package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n*(1000-int(math.Round(got*10))) < minTail*1000 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond it", c.n, got, minTail)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := quantile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := quantile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of an odd sample = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// curve is a synthetic open-loop latency curve: latency grows without
// bound as the offered rate approaches capacity.
func curve(base, capacity float64) func(rate float64) float64 {
	return func(rate float64) float64 {
		if rate >= capacity {
			return math.Inf(1)
		}
		return base / (1 - rate/capacity)
	}
}

func TestSearchRateFindsThreshold(t *testing.T) {
	const base, limit, res = 2.0, 20.0, 0.01
	for _, capacity := range []float64{1e3, 37e3, 250e3, 4e6} {
		for _, guess := range []float64{100, 50e3, 10e6} {
			lat := curve(base, capacity)
			calls := 0
			best, tries := searchRate(guess, 2, 10, 1e8, res, never, func(r float64) bool {
				calls++
				return lat(r) <= limit
			})
			want := capacity * (1 - base/limit)
			if best > want {
				t.Errorf("cap %g guess %g: best %g exceeds the true threshold %g", capacity, guess, best, want)
			}
			if best < want*(1-2*res) {
				t.Errorf("cap %g guess %g: best %g is coarser than %g of threshold %g", capacity, guess, best, res, want)
			}
			if tries != calls || tries > 40 {
				t.Errorf("cap %g guess %g: %d tries (%d calls)", capacity, guess, tries, calls)
			}
		}
	}
}

func TestSearchRateMonotone(t *testing.T) {
	prev := 0.0
	for capacity := 10e3; capacity <= 1e6; capacity *= 1.7 {
		lat := curve(1, capacity)
		best, _ := searchRate(30e3, 1.25, 10, 1e8, 0.01, never, func(r float64) bool { return lat(r) <= 10 })
		if best < prev {
			t.Fatalf("capacity %g: best %g fell below %g found at a lower capacity", capacity, best, prev)
		}
		prev = best
	}
}

func never() bool { return false }

// TestSearchRateStopsWhenDone checks that an early stop still returns a
// rate that passed, at a coarser resolution.
func TestSearchRateStopsWhenDone(t *testing.T) {
	lat := curve(1, 100e3)
	calls := 0
	best, tries := searchRate(30e3, 2, 10, 1e8, 0.001, func() bool { return calls >= 4 }, func(r float64) bool {
		calls++
		return lat(r) <= 10
	})
	if tries != 4 {
		t.Errorf("ran %d passes after done, want 4", tries)
	}
	if want := 90e3; best > want || best < want/2 {
		t.Errorf("best %g is not a passing rate within the bracket [%g, %g]", best, want/2, want)
	}
}

func TestSearchRateBounds(t *testing.T) {
	if best, _ := searchRate(100, 2, 10, 1e6, 0.01, never, func(float64) bool { return false }); best != 0 {
		t.Errorf("nothing passes: best = %g, want 0", best)
	}
	if best, _ := searchRate(100, 2, 10, 1e6, 0.01, never, func(float64) bool { return true }); best != 1e6 {
		t.Errorf("everything passes: best = %g, want the maximum", best)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	ws := []windowOutcome{
		{latencyMs: 3},
		{latencyMs: 4},
		{latencyMs: 2, refused: true},
		{latencyMs: math.Inf(1), missing: true},
		{latencyMs: 5, degraded: true},
		{latencyMs: 6, mismatch: true},
	}
	var tl tally
	for _, w := range ws {
		tl.add(w.failed())
	}
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("tally = %+v, want 6 attempted, 4 failed", tl)
	}
	if got := tl.frac(); got != 4.0/6 {
		t.Errorf("frac = %v, want %v", got, 4.0/6)
	}
	lat := latencies(ws)
	if !math.IsInf(lat[2], 1) {
		t.Errorf("a refused chunk's window has latency %v; it must miss any limit", lat[2])
	}
	if !math.IsInf(lat[3], 1) {
		t.Errorf("a missing window has latency %v; it must miss any limit", lat[3])
	}
	if lat[4] != 5 || lat[5] != 6 {
		t.Errorf("reported windows keep their latency: got %v", lat[4:])
	}
	// Two of six windows at +Inf put p90 beyond every finite limit.
	if p90 := quantile(lat, 90); !math.IsInf(p90, 1) {
		t.Errorf("p90 = %v with a third of windows refused or missing", p90)
	}
	if (tally{}).frac() != 0 {
		t.Error("an empty tally must report 0")
	}
}
