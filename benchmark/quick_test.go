package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuick runs all five workloads at about 1/50 size, untraced and traced,
// so that `go test` exercises the whole harness: set-up, the direct part, a
// served stream through one worker and through the router, the probes, the
// correctness gate and the trace writer.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulators")
	}
	// Results, traces and store directories go under out/ of the working
	// directory; keep them out of the source tree.
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	start := time.Now()
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, options{Workload: w.Name, Seed: 2, Quick: true, Trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 20 {
				t.Errorf("%s traced=%v: correct=%v, %d failed of %d attempted: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Info)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in the wrong unit (%+v)", w.Name, traced, m.Name, v)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				if st, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.Name+".json")); err != nil || st.Size() == 0 {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "out", "tmp-*")); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
	if d := time.Since(start); d > 20*time.Second && !raceEnabled {
		t.Errorf("quick runs took %v, want under 20 s", d)
	}
}
