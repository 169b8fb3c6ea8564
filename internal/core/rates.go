// Package core implements the paper's contribution: a leakage-aware ORAM
// controller frontend that (i) enforces a strictly periodic ORAM access
// schedule with indistinguishable dummy accesses, (ii) changes the rate
// only at geometrically growing epoch boundaries, choosing from a small
// public set R, and (iii) learns a good rate per epoch from three hardware
// performance counters (§2, §6, §7). The package also provides the
// baseline memory controllers the paper evaluates against (§9.1.6).
package core

import (
	"fmt"
	"math"
)

// Paper rate-set bounds (§9.2): rates below ~200 destabilize memory-bound
// workloads; rates above ~30000 idle even compute-bound ones.
const (
	// MinRate is the fastest allowed ORAM rate in cycles (§9.2).
	MinRate = 256
	// MaxRate is the slowest allowed ORAM rate in cycles (§9.2).
	MaxRate = 32768
	// InitialRate is used during the first epoch, before the learner has
	// data (§9.2: "During the first epoch, we set the rate to 10000").
	InitialRate = 10000
)

// LogSpacedRates returns n candidate rates between lo and hi inclusive,
// spaced evenly on a log scale (§9.2). For n=4 and the paper bounds this
// yields {256, 1290, 6501, 32768}. n=1 returns {lo}.
func LogSpacedRates(n int, lo, hi uint64) ([]uint64, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("core: rate count must be ≥ 1, got %d", n)
	case lo == 0 || hi < lo:
		return nil, fmt.Errorf("core: invalid rate bounds [%d, %d]", lo, hi)
	}
	if n == 1 {
		return []uint64{lo}, nil
	}
	out := make([]uint64, n)
	ratio := float64(hi) / float64(lo)
	for i := 0; i < n; i++ {
		out[i] = uint64(math.Round(float64(lo) * math.Pow(ratio, float64(i)/float64(n-1))))
	}
	out[0], out[n-1] = lo, hi
	return out, nil
}

// PaperRates returns the §9.2 rate set for the given |R|.
func PaperRates(n int) []uint64 {
	r, err := LogSpacedRates(n, MinRate, MaxRate)
	if err != nil {
		panic(err)
	}
	return r
}

// Discretize maps a raw predicted interval to the nearest candidate rate by
// absolute distance (§7.1.3): NewInt = argmin_{r∈R} |NewIntRaw − r|.
// rates must be non-empty and sorted ascending. Ties choose the smaller
// (faster) rate, matching a ≤ comparison in a sequential hardware scan.
func Discretize(raw uint64, rates []uint64) uint64 {
	best := rates[0]
	bestDist := absDiff(raw, rates[0])
	for _, r := range rates[1:] {
		if d := absDiff(raw, r); d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}

// DiscretizeLog is the ablation variant (BenchmarkAblationDiscretizer):
// distance measured in log space, which respects the geometric spacing of R.
func DiscretizeLog(raw uint64, rates []uint64) uint64 {
	if raw == 0 {
		return rates[0]
	}
	lr := math.Log2(float64(raw))
	best := rates[0]
	bestDist := math.Abs(lr - math.Log2(float64(rates[0])))
	for _, r := range rates[1:] {
		if d := math.Abs(lr - math.Log2(float64(r))); d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
