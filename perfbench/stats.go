package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles, in tenths of a percent, a timing
// may be reported at, lowest first. A percentile is only reported when the
// sample leaves at least minTail observations beyond it, so that it rests
// on more than one or two outliers.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

const minTail = 10

// tailPercentile returns the highest percentile in tailLadder that has at
// least minTail of n samples beyond it, and false when even the median
// does not.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n*(1000-p) >= minTail*1000 {
			best, ok = float64(p)/10, true
		}
	}
	return best, ok
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or NaN for an empty sample. +Inf entries sort last, so a refused or
// missing result pushes the upper percentiles up as it should.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle of xs, or the mean of the two middle values when
// their number is even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 50)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// searchRate finds, to relative resolution res, the highest rate at which
// pass holds, assuming pass holds below some threshold and fails above it.
// It starts from guess, widens the bracket by factor step until one rate
// passes and a higher one fails (giving up at min or max), then bisects
// in log space until the resolution is reached or done reports true. It
// returns the highest passing rate seen (0 if none, including min) and the
// number of passes it ran.
func searchRate(guess, step, min, max, res float64, done func() bool, pass func(rate float64) bool) (best float64, tries int) {
	try := func(r float64) bool {
		tries++
		return pass(r)
	}
	lo, hi := 0.0, 0.0 // lo passes, hi fails; 0 = unknown
	r := guess
	for lo == 0 || hi == 0 {
		if try(r) {
			lo = r
			if hi == 0 {
				if r >= max {
					return r, tries
				}
				r = math.Min(r*step, max)
			}
		} else {
			hi = r
			if lo == 0 {
				if r <= min {
					return 0, tries
				}
				r = math.Max(r/step, min)
			}
		}
	}
	for hi/lo-1 > res && !done() {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, tries
}

// windowOutcome is what one stream window produced in a fixed-rate pass.
type windowOutcome struct {
	// latencyMs runs from when the window's closing chunk was due until
	// its report was visible; +Inf when the report never came or its
	// closing chunk was refused.
	latencyMs float64
	refused   bool // the closing chunk got a 429
	missing   bool // no report for the window
	degraded  bool // reported at a rung other than full
	mismatch  bool // fingerprint differs from the reference replay
}

func (w windowOutcome) failed() bool {
	return w.refused || w.missing || w.degraded || w.mismatch
}

// tally counts operations attempted and failed.
type tally struct{ attempted, failed int }

func (t *tally) add(failed bool) {
	t.attempted++
	if failed {
		t.failed++
	}
}

func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// latencies extracts per-window latencies, counting a refused or missing
// window as +Inf so it misses any limit.
func latencies(ws []windowOutcome) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.latencyMs
		if w.refused || w.missing {
			out[i] = math.Inf(1)
		}
	}
	return out
}
