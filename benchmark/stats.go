package main

import (
	"math"
	"slices"
	"sort"
)

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples; the epsilon keeps 0.9 × 100 from rounding up to 91.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rank(len(sorted), q)-1])
}

// beyond is the number of samples that must lie above a percentile before
// the percentile is reported.
const beyond = 10

// percentileLadder lists the percentiles the report may quote.
var percentileLadder = []float64{0.50, 0.90, 0.99, 0.999}

// supportedPercentile returns the highest percentile of the ladder that has
// at least `beyond` of n samples beyond it, or 0 when not even the median
// does.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if n-rank(n, q) >= beyond {
			best = q
		}
	}
	return best
}

// summary is a metric reduced over the sub-windows of one run.
type summary struct {
	Median, Min, Max float64
	N                int       // samples (latencies) or sub-windows (everything else) behind the value
	Windows          []float64 // the per-sub-window values, in time order
}

// summarize takes the median of per-sub-window values, so that one
// noisy-neighbour burst does not decide a run.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s), Windows: vals}
}

// windowQuantile reduces per-sub-window latency samples to the median of
// the sub-window q-quantiles. A thin series (too few samples beyond q in a
// sub-window) has neighbouring sub-windows merged, by the smallest factor
// that divides the window count and gives every group enough samples; a
// series too thin even when pooled is still reported, from the pool. scale
// converts the samples' unit to the metric's.
func windowQuantile(wins [][]uint32, q, scale float64) summary {
	total := 0
	for _, w := range wins {
		total += len(w)
	}
	if total == 0 {
		return summary{}
	}
	group := len(wins)
	for g := 1; g <= len(wins); g++ {
		if len(wins)%g != 0 {
			continue
		}
		ok := true
		for i := 0; i < len(wins); i += g {
			n := 0
			for _, w := range wins[i : i+g] {
				n += len(w)
			}
			if n-rank(n, q) < beyond {
				ok = false
				break
			}
		}
		if ok {
			group = g
			break
		}
	}
	var vals []float64
	for i := 0; i < len(wins); i += group {
		var pool []uint32
		for _, w := range wins[i : i+group] {
			pool = append(pool, w...)
		}
		slices.Sort(pool)
		vals = append(vals, quantile(pool, q)*scale)
	}
	s := summarize(vals)
	s.N = total
	return s
}

// hopSelf is a hop's self time on aggregates: its p50 minus the p50 of its
// slowest child hop (a result that waits for parallel parts waits for the
// slowest one), never below zero.
func hopSelf(hopP50 float64, childP50 ...float64) float64 {
	slowest := 0.0
	for _, c := range childP50 {
		slowest = math.Max(slowest, c)
	}
	return math.Max(0, hopP50-slowest)
}
