package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 75, 4},
		{[]float64{10, 20}, 95, 19.5},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The choosing-metrics rule: report the highest percentile that still has at
// least ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1600, 99}, {10000, 99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := samplesBeyond(1600, 95); got != 80 {
		t.Errorf("samplesBeyond(1600, 95) = %d, want 80", got)
	}
	for _, p := range tailPercentiles {
		n := minSamplesFor(p)
		if samplesBeyond(n, p) < 10 || samplesBeyond(n-1, p) >= 10 {
			t.Errorf("minSamplesFor(%v) = %d is not the smallest count with ten samples beyond", p, n)
		}
	}
}

func TestDigestStable(t *testing.T) {
	a := []string{"126.gcc@4|fastsim|335578|220728|0|ab12", "random#3|func|10891|0|0|cd34"}
	b := []string{a[1], a[0]}
	if digest(a) != digest(b) {
		t.Errorf("digest depends on line order")
	}
	// Frozen: the golden digests in golden.go are only comparable across
	// commits while this function does not change.
	if got, want := digest(a), "341aefc1edf23d74"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	if digest(a) == digest(a[:1]) {
		t.Errorf("digest ignores a line")
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 108); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("relDiff(100, 108) = %v", got)
	}
	if got := relDiff(0, 5); got != 0 {
		t.Errorf("relDiff(0, 5) = %v, want 0", got)
	}
}
