package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile rank.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// tailPercentiles are the tail percentiles the benchmark may report.
var tailPercentiles = []float64{99, 95, 90, 75}

// highestPercentile is the highest tail percentile of n samples that still
// has at least ten samples beyond it (the choosing-metrics rule), or 50 when
// n is too small for any tail.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// minSamplesFor is the smallest sample count that leaves ten samples beyond
// the p-th percentile.
func minSamplesFor(p float64) int {
	return int(math.Ceil(10 * 100 / (100 - p)))
}

// relDiff is (b-a)/a, the change from a to b as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// digest folds result lines into a short stable hash. Lines are sorted
// first, so the digest does not depend on the order runs were made in.
func digest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := sha256.New()
	for _, l := range s {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
