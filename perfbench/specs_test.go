package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root and the catalogue the benchmark
// prints from must list the same workloads and metrics, in the same order
// and units.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadOrder[i])
		}
	}
	same := func(kind string, got, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, benchmark %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eSpecs)
	same("per_layer", doc.PerLayer, layerSpecs)
}
