package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root and the tables in metrics.go and
// workloads.go must say the same thing.
func TestManifestMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in the manifest, %d defined", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, defined %q %q", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\ntable    %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %+v\ntable    %+v", m.PerLayer, perLayer)
	}
	if len(endToEnd) != 13 {
		t.Errorf("%d end-to-end metrics, want thirteen", len(endToEnd))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// Every workload gives every configuration a pass, so that every workload
// reports every end-to-end metric.
func TestEveryWorkloadRunsEveryConfiguration(t *testing.T) {
	for _, w := range workloadDefs {
		for _, c := range configs {
			if p := w.Direct[c.Name]; p.Reps < 1 || len(p.Runs) == 0 {
				t.Errorf("%s: no pass for %s", w.Name, c.Name)
			}
		}
		if len(w.Direct) != len(configs) {
			t.Errorf("%s: %d passes for %d configurations", w.Name, len(w.Direct), len(configs))
		}
		if w.DirectShare <= 0 || w.DirectShare >= 1 {
			t.Errorf("%s: DirectShare %v", w.Name, w.DirectShare)
		}
	}
}
