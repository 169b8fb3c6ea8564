package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tcoram/internal/workload"
)

// sscan parses a numeric table cell.
func sscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// All experiment tests run at Quick scale; `cmd/experiments -scale full`
// prints the Full-scale numbers.

func TestTable1ContainsKeyParameters(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"in-order", "1 MB, 16-way", "1488", "64 B", "flat"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2DerivesPaperEnergy(t *testing.T) {
	out := Table2().String()
	if !strings.Contains(out, "984") {
		t.Fatalf("Table 2 missing the 984 nJ per-access energy:\n%s", out)
	}
}

func TestFig2InputDependence(t *testing.T) {
	tbl := Fig2(Quick())
	// Average the per-window gap per spec.
	gaps := map[string]float64{}
	counts := map[string]float64{}
	for _, row := range tbl.Rows {
		var v float64
		if _, err := sscan(row[2], &v); err != nil {
			t.Fatal(err)
		}
		gaps[row[0]] += v
		counts[row[0]]++
	}
	for k := range gaps {
		gaps[k] /= counts[k]
	}
	// Fig 2 top: perlbench splitmail accesses ORAM far less often than
	// diffmail (paper: ~80×; we require ≥ 20×).
	if r := gaps["perlbench/splitmail"] / gaps["perlbench/diffmail"]; r < 20 {
		t.Errorf("perlbench input gap ratio = %.1f, want ≥ 20", r)
	}
	// Fig 2 bottom: astar biglakes varies strongly over time; rivers does
	// not. Compare max/min across windows.
	variation := func(id string) float64 {
		min, max := 1e18, 0.0
		for _, row := range tbl.Rows {
			if row[0] != id {
				continue
			}
			var v float64
			if _, err := sscan(row[2], &v); err != nil {
				t.Fatal(err)
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max / min
	}
	if vr, vb := variation("astar/rivers"), variation("astar/biglakes"); vb < 2*vr {
		t.Errorf("astar variation: biglakes %.1f vs rivers %.1f — biglakes should vary far more", vb, vr)
	}
}

func TestFig5SweepShape(t *testing.T) {
	s := Quick()
	mcf := Fig5Sweep(workload.MCF(), s)
	h264 := Fig5Sweep(workload.H264ref(), s)
	// Memory bound: performance degrades monotonically-ish with slower
	// rates; the slowest rate must be far worse than the fastest.
	if mcf[len(mcf)-1].PerfOverheadX < 3*mcf[0].PerfOverheadX {
		t.Errorf("mcf: slowest rate %.1f× not ≫ fastest %.1f×",
			mcf[len(mcf)-1].PerfOverheadX, mcf[0].PerfOverheadX)
	}
	// Compute bound: at very slow rates power drops to (or below) the
	// base_dram level (§9.2: "power to drop below that of base_dram").
	last := h264[len(h264)-1]
	if last.PowerOverheadX > 1.6 {
		t.Errorf("h264ref power at rate %d = %.2f× base_dram, want ≲ 1.6", last.Rate, last.PowerOverheadX)
	}
	// Fast rates always burn much more power than slow ones.
	if h264[0].PowerOverheadX < 2*last.PowerOverheadX {
		t.Errorf("h264ref: fast-rate power %.2f× not ≫ slow-rate %.2f×",
			h264[0].PowerOverheadX, last.PowerOverheadX)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	rows := Fig6Rows(Quick())
	get := func(bench, scheme string) Fig6Row {
		for _, r := range rows {
			if r.Benchmark == bench && r.Scheme == scheme {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", bench, scheme)
		return Fig6Row{}
	}
	// base_oram is the performance oracle among ORAM schemes.
	avgORAM := get("Avg", "base_oram")
	avgDyn := get("Avg", "dynamic_R4_E4")
	avgS300 := get("Avg", "static_300")
	avgS1300 := get("Avg", "static_1300")
	if avgORAM.PerfOverheadX >= avgDyn.PerfOverheadX {
		t.Error("base_oram should outperform the dynamic scheme")
	}
	// §9.3: static_300 burns more power than dynamic; static_1300 is
	// slower than dynamic.
	if avgS300.PowerWatts <= avgDyn.PowerWatts {
		t.Errorf("static_300 power %.3f ≤ dynamic %.3f", avgS300.PowerWatts, avgDyn.PowerWatts)
	}
	if avgS1300.PerfOverheadX <= avgDyn.PerfOverheadX {
		t.Errorf("static_1300 perf %.2f ≤ dynamic %.2f", avgS1300.PerfOverheadX, avgDyn.PerfOverheadX)
	}
	// mcf is the most ORAM-bound benchmark; hmmer the least.
	if get("mcf", "base_oram").PerfOverheadX < 2*get("hmmer", "base_oram").PerfOverheadX {
		t.Error("mcf should be far more ORAM-sensitive than hmmer")
	}
	// Leakage columns: base_oram astronomical, static 0, dynamic 32.
	if get("Avg", "static_300").LeakageBits != 0 {
		t.Error("static scheme must report 0 ORAM-channel bits")
	}
	if get("Avg", "dynamic_R4_E4").LeakageBits != 32 {
		t.Errorf("dynamic_R4_E4 leakage = %v, want 32", avgDyn.LeakageBits)
	}
	if get("Avg", "base_oram").LeakageBits < 1e9 {
		t.Error("base_oram leakage should be astronomical")
	}
}

func TestFig6RowsParallelSerialEquivalence(t *testing.T) {
	// The worker-pool fan-out must not change results: every sim.Run is
	// seed-deterministic and self-contained, and aggregation happens in job
	// order. Compare a forced-serial run against a forced-parallel one at a
	// reduced scale (full Quick would run the suite twice). Each run starts
	// from an empty memo, or the second would only read back the first; the
	// other tests' results come back afterwards.
	s := Scale{Instructions: 300_000, Warmup: 100_000, WindowInstrs: 100_000, EpochFirstLen: 1 << 16}
	memo.Lock()
	saved := memo.results
	memo.Unlock()
	forget := func() {
		memo.Lock()
		memo.results = nil
		memo.Unlock()
	}
	defer func() {
		memo.Lock()
		memo.results = saved
		memo.Unlock()
	}()
	defer func(p int) { Parallelism = p }(Parallelism)
	Parallelism = 1
	forget()
	serial := Fig6Rows(s)
	Parallelism = 8
	forget()
	parallel := Fig6Rows(s)
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Fatalf("row %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
			}
		}
		t.Fatal("parallel Fig6Rows differs from serial")
	}
}

func TestFig7HasEpochMarks(t *testing.T) {
	tbl := Fig7(Quick())
	marks := 0
	schemes := map[string]bool{}
	for _, row := range tbl.Rows {
		schemes[row[1]] = true
		if row[4] != "" {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("no epoch transition marks in Fig 7 data")
	}
	for _, want := range []string{"base_oram", "dynamic_R4_E2", "static_1300"} {
		if !schemes[want] {
			t.Errorf("Fig 7 missing scheme %s", want)
		}
	}
}

func TestFig8LeakageMonotonicity(t *testing.T) {
	// Fig 8a: leakage budget scales with lg|R|; Fig 8b: with epoch count.
	a := Fig8a(Quick())
	leakOf := func(tbl interface{ String() string }, scheme string) float64 {
		for _, row := range a.Rows {
			if row[0] == "Avg" && row[1] == scheme {
				var v float64
				if _, err := sscan(row[4], &v); err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("missing Avg row for %s", scheme)
		return 0
	}
	if l16, l4 := leakOf(a, "dynamic_R16_E2"), leakOf(a, "dynamic_R4_E2"); l16 != 128 || l4 != 64 {
		t.Errorf("Fig8a leakage: R16=%v (want 128), R4=%v (want 64)", l16, l4)
	}
	b := Fig8b(Quick())
	var e4, e16 float64
	for _, row := range b.Rows {
		if row[0] != "Avg" {
			continue
		}
		var v float64
		if _, err := sscan(row[4], &v); err != nil {
			t.Fatal(err)
		}
		switch row[1] {
		case "dynamic_R4_E4":
			e4 = v
		case "dynamic_R4_E16":
			e16 = v
		}
	}
	if e4 != 32 || e16 != 16 {
		t.Errorf("Fig8b leakage: E4=%v (want 32), E16=%v (want 16)", e4, e16)
	}
}

func TestHeadlineDirections(t *testing.T) {
	h := ComputeHeadline(Quick())
	if h.DynVsORAMPerfPct <= 0 {
		t.Error("dynamic should cost performance vs base_oram")
	}
	if h.S300VsDynPowerPct <= 0 {
		t.Error("static_300 should cost power vs dynamic")
	}
	if h.S1300VsDynPerfPct <= 0 {
		t.Error("static_1300 should cost performance vs dynamic")
	}
	if h.DynDummyFrac <= 0 || h.DynDummyFrac >= 1 {
		t.Errorf("dummy fraction = %v", h.DynDummyFrac)
	}
	out := headlineTable(h).String()
	for _, want := range []string{"base_oram", "dynamic", "static_300", "94 bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline table missing %q", want)
		}
	}
}

func TestLeakageExamplesTable(t *testing.T) {
	out := LeakageExamples().String()
	for _, want := range []string{"64", "126", "32", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("leakage examples missing %q:\n%s", want, out)
		}
	}
}
