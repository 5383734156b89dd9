package main

import (
	"reflect"
	"testing"

	"facile/internal/serve"
)

func requests(spec streamSpec, seed int64, n int) []serve.JobRequest {
	st := newStream(spec, seed)
	out := make([]serve.JobRequest, n)
	for i := range out {
		out[i], _ = st.request(i)
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := workloadByName("serve")
	a, b := requests(w.Stream, 1, 1600), requests(w.Stream, 1, 1600)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the same seed gave two different streams")
	}
	// Drawing out of order, as two clients do, changes nothing.
	st := newStream(w.Stream, 1)
	for _, i := range []int{1599, 0, 800} {
		if got, _ := st.request(i); !reflect.DeepEqual(got, a[i]) {
			t.Errorf("request(%d) depends on the order of calls", i)
		}
	}
	if reflect.DeepEqual(a, requests(w.Stream, 2, 1600)) {
		t.Errorf("seeds 1 and 2 gave the same stream")
	}
	// serve and fleet see the identical stream.
	f, _ := workloadByName("fleet")
	if !reflect.DeepEqual(a, requests(f.Stream, 1, 1600)) {
		t.Errorf("fleet's stream differs from serve's")
	}
}

func TestStreamMix(t *testing.T) {
	w, _ := workloadByName("serve")
	if len(w.Stream.Lineages) != 12 {
		t.Fatalf("%d lineages, want 12", len(w.Stream.Lineages))
	}
	byEngine := map[string]int{}
	lineages := map[string]bool{}
	for _, r := range requests(w.Stream, 1, 1600) {
		byEngine[r.Engine]++
		lineages[r.LineageKey()] = true
		if !r.Memoize || r.Scale != 1 {
			t.Fatalf("request %+v: want memoizing, scale 1", r)
		}
	}
	if len(lineages) != 12 {
		t.Errorf("%d distinct lineages in 1600 jobs, want 12", len(lineages))
	}
	// 1600 jobs are 80 whole blocks, so the shares are exact.
	for engine, want := range map[string]int{"fastsim": 960, "fac-inorder": 320, "fac-ooo": 320} {
		if byEngine[engine] != want {
			t.Errorf("%d %s jobs in 1600, want %d", byEngine[engine], engine, want)
		}
	}
}

func TestEveryBlockHoldsTheWholeMix(t *testing.T) {
	w, _ := workloadByName("serve")
	st := newStream(w.Stream, 7)
	n := len(st.block)
	if n != 20 {
		t.Fatalf("block of %d jobs, want 20", n)
	}
	var first []int
	for b := 0; b < 50; b++ {
		count := map[int]int{}
		var order []int
		for i := b * n; i < (b+1)*n; i++ {
			_, li := st.request(i)
			count[li]++
			order = append(order, li)
		}
		for li, l := range w.Stream.Lineages {
			if count[li] != l.Weight {
				t.Fatalf("block %d: lineage %d drawn %d times, want %d", b, li, count[li], l.Weight)
			}
		}
		if b == 0 {
			first = order
		} else if b == 1 && reflect.DeepEqual(order, first) {
			t.Errorf("blocks 0 and 1 are in the same order")
		}
	}
}

func TestFreshStreamNeverRepeatsALineage(t *testing.T) {
	w, _ := workloadByName("cold")
	seen := map[string]bool{}
	for _, r := range requests(w.Stream, 1, 500) {
		if k := r.LineageKey(); seen[k] {
			t.Fatalf("lineage %s drawn twice in a Fresh stream", k)
		} else {
			seen[k] = true
		}
	}
}
