package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs what -smoke runs: every workload, end to end
// and traced, tiny and short. It fails when a refactor of the program breaks
// the benchmark's build or wiring, when a named metric is missing, not
// finite or without its unit, when any op fails, or when a file store's
// scratch directory outlives its run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	scratch := t.TempDir()
	start := time.Now()
	if code := runSmoke(io.Discard, runOpts{Seed: 1, Scratch: scratch}); code != 0 {
		t.Fatalf("smoke run exits %d", code)
	}
	left, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%s was left in the scratch directory", e.Name())
	}
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))
}

// TestBenchmarkJSONMatchesTables keeps the contract file at the repository
// root and the tables this program prints from saying different things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, file.Workloads[i], w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound differs from the program's %v", d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd, true)
	same("per-layer", file.PerLayer, perLayer, false)
}
