package tcoram

// One benchmark per table/figure of the paper's evaluation, plus ablation
// benches for two of its design choices and micro-benches on the hot
// components. Figure/table benches run the corresponding experiment at
// Quick scale and report the paper-comparable metrics via b.ReportMetric,
// so `go test -bench=.` regenerates every result series.
// `go run ./cmd/experiments -scale full` prints the Full-scale tables.

import (
	"math/rand"
	"testing"

	"tcoram/internal/core"
	"tcoram/internal/crypt"
	"tcoram/internal/dram"
	"tcoram/internal/experiments"
	"tcoram/internal/leakage"
	"tcoram/internal/pathoram"
	"tcoram/internal/power"
	"tcoram/internal/sim"
	"tcoram/internal/workload"
)

// BenchmarkTable1Config regenerates Table 1: the timing model, including
// the ORAM access latency our DRAM model derives (paper: 1488 cycles).
func BenchmarkTable1Config(b *testing.B) {
	var est pathoram.LatencyEstimate
	for i := 0; i < b.N; i++ {
		est = pathoram.EstimateAccessLatency(pathoram.PaperConfig(), dram.Default(), crypt.DefaultLatency())
	}
	b.ReportMetric(float64(est.CPUCycles), "oram-latency-cycles")
	b.ReportMetric(float64(est.BytesMoved), "oram-bytes/access")
	b.ReportMetric(1488, "paper-latency-cycles")
}

// BenchmarkTable2Energy regenerates Table 2's derived quantity: the energy
// of one ORAM access (paper: ≈984 nJ).
func BenchmarkTable2Energy(b *testing.B) {
	var nj float64
	c := power.Table2()
	for i := 0; i < b.N; i++ {
		nj = c.ORAMAccessEnergy(power.PaperORAMAccess())
	}
	b.ReportMetric(nj, "nJ/oram-access")
}

// BenchmarkFig1MaliciousLeak regenerates the Figure 1 demonstration: bits
// recovered from base_oram timing vs the enforcer.
func BenchmarkFig1MaliciousLeak(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	secret := make([]bool, 64)
	for i := range secret {
		secret[i] = rng.Intn(2) == 1
	}
	var res LeakDemoResult
	for i := 0; i < b.N; i++ {
		res = RunLeakDemo(secret)
	}
	b.ReportMetric(float64(res.UnprotectedBits), "bits-leaked-unprotected")
	shielded := 0.0
	if !res.ShieldedTraceEq {
		shielded = 1
	}
	b.ReportMetric(shielded, "bits-visible-shielded")
}

// BenchmarkFig2InputDependence regenerates Figure 2: the input-dependent
// ORAM rate gap for perlbench (paper: ~80×).
func BenchmarkFig2InputDependence(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		s := experiments.Quick()
		gap := func(spec workload.Spec) float64 {
			r, err := sim.Run(spec, sim.Config{
				Scheme: sim.BaseORAM, Instructions: s.Instructions,
				WarmupInstrs: s.Warmup, WindowInstrs: s.WindowInstrs,
			})
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			for _, w := range r.Windows {
				sum += w.InstrPerMem
			}
			return sum / float64(len(r.Windows))
		}
		ratio = gap(workload.PerlbenchInput("splitmail")) / gap(workload.PerlbenchInput("diffmail"))
	}
	b.ReportMetric(ratio, "perlbench-input-rate-ratio")
	b.ReportMetric(80, "paper-ratio")
}

// BenchmarkFig5RateSweep regenerates Figure 5's extremes for mcf: overhead
// at the fastest vs slowest static rates.
func BenchmarkFig5RateSweep(b *testing.B) {
	var pts []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig5Sweep(workload.MCF(), experiments.Quick())
	}
	b.ReportMetric(pts[0].PerfOverheadX, "mcf-perfX-at-fastest")
	b.ReportMetric(pts[len(pts)-1].PerfOverheadX, "mcf-perfX-at-slowest")
}

// BenchmarkFig6Baselines regenerates Figure 6's Avg column: performance
// overhead (× base_dram) and power for the five schemes.
func BenchmarkFig6Baselines(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6Rows(experiments.Quick())
	}
	for _, r := range rows {
		if r.Benchmark != "Avg" {
			continue
		}
		b.ReportMetric(r.PerfOverheadX, r.Scheme+"-perfX")
		b.ReportMetric(r.PowerWatts, r.Scheme+"-W")
	}
}

// BenchmarkFig7Stability regenerates Figure 7's headline behaviour: the
// dynamic scheme's IPC stays near base_oram for libquantum (paper: 8%
// overhead).
func BenchmarkFig7Stability(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		s := experiments.Quick()
		spec, _ := workload.ByName("libquantum")
		oram, err := sim.Run(spec, sim.Config{Scheme: sim.BaseORAM, Instructions: s.Instructions, WarmupInstrs: s.Warmup})
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := sim.Run(spec, sim.Config{
			Scheme: sim.DynamicORAM, NumRates: 4, EpochGrowth: 2,
			Instructions: s.Instructions, WarmupInstrs: s.Warmup, EpochFirstLen: s.EpochFirstLen,
		})
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(dyn.Cycles)/float64(oram.Cycles) - 1
	}
	b.ReportMetric(overhead*100, "libquantum-dyn-vs-oram-%")
	b.ReportMetric(8, "paper-%")
}

// BenchmarkFig8aVaryRates regenerates Figure 8a's budget column: leakage
// halves as |R| drops 16 → 4.
func BenchmarkFig8aVaryRates(b *testing.B) {
	var l16, l4 float64
	for i := 0; i < b.N; i++ {
		l16 = float64(leakage.PaperBudget(16, 2).ORAMBits())
		l4 = float64(leakage.PaperBudget(4, 2).ORAMBits())
	}
	b.ReportMetric(l16, "R16-bits")
	b.ReportMetric(l4, "R4-bits")
}

// BenchmarkFig8bVaryEpochs regenerates Figure 8b's trade: E16 halves the
// budget vs E4 at a small performance cost (measured on sjeng).
func BenchmarkFig8bVaryEpochs(b *testing.B) {
	var e4X, e16X float64
	for i := 0; i < b.N; i++ {
		s := experiments.Quick()
		spec, _ := workload.ByName("sjeng")
		base, err := sim.Run(spec, sim.Config{Scheme: sim.BaseDRAM, Instructions: s.Instructions, WarmupInstrs: s.Warmup})
		if err != nil {
			b.Fatal(err)
		}
		run := func(growth uint64) float64 {
			r, err := sim.Run(spec, sim.Config{
				Scheme: sim.DynamicORAM, NumRates: 4, EpochGrowth: growth,
				Instructions: s.Instructions, WarmupInstrs: s.Warmup, EpochFirstLen: s.EpochFirstLen,
			})
			if err != nil {
				b.Fatal(err)
			}
			return r.PerfOverhead(base)
		}
		e4X, e16X = run(4), run(16)
	}
	b.ReportMetric(e4X, "E4-perfX-32bits")
	b.ReportMetric(e16X, "E16-perfX-16bits")
}

// BenchmarkLeakageBounds regenerates Example 2.1/6.1: the 64/126-bit
// dynamic bounds and the unprotected baseline's explosion.
func BenchmarkLeakageBounds(b *testing.B) {
	var oramBits, totalBits, unprot float64
	for i := 0; i < b.N; i++ {
		bud := leakage.PaperBudget(4, 2)
		oramBits = float64(bud.ORAMBits())
		totalBits = float64(bud.TotalBits())
		unprot = float64(leakage.UnprotectedBitsApprox(1e12, pathoram.PaperAccessLatency))
	}
	b.ReportMetric(oramBits, "example6.1-oram-bits")
	b.ReportMetric(totalBits, "example6.1-total-bits")
	b.ReportMetric(unprot, "unprotected-bits-1e12cyc")
}

// --- Ablation benches: the paper's choice against its alternative ---

// BenchmarkAblationPredictor compares Algorithm 1's shift divider against
// the exact divider (Equation 1) on the learner-critical workload gobmk.
func BenchmarkAblationPredictor(b *testing.B) {
	s := experiments.Quick()
	spec, _ := workload.ByName("gobmk")
	run := func(p core.Predictor) float64 {
		r, err := sim.Run(spec, sim.Config{
			Scheme: sim.DynamicORAM, NumRates: 4, EpochGrowth: 2,
			Instructions: s.Instructions, WarmupInstrs: s.Warmup,
			EpochFirstLen: s.EpochFirstLen, Predictor: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.Cycles)
	}
	var shift, exact float64
	for i := 0; i < b.N; i++ {
		shift, exact = run(core.ShiftPredictor), run(core.ExactPredictor)
	}
	b.ReportMetric(shift/exact, "shift-vs-exact-cycles-ratio")
}

// BenchmarkAblationDiscretizer compares linear (paper) vs log-space rate
// discretization.
func BenchmarkAblationDiscretizer(b *testing.B) {
	s := experiments.Quick()
	spec, _ := workload.ByName("gcc")
	run := func(d core.Discretizer) float64 {
		r, err := sim.Run(spec, sim.Config{
			Scheme: sim.DynamicORAM, NumRates: 4, EpochGrowth: 2,
			Instructions: s.Instructions, WarmupInstrs: s.Warmup,
			EpochFirstLen: s.EpochFirstLen, Discretizer: d,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.Power.Watts()
	}
	var lin, lg float64
	for i := 0; i < b.N; i++ {
		lin, lg = run(core.LinearDiscretizer), run(core.LogDiscretizer)
	}
	b.ReportMetric(lin, "linear-W")
	b.ReportMetric(lg, "log-W")
}

// --- Micro-benches on the hot components ---

// fixedNonce is a deterministic nonce source for the calibration loop: it
// leaves the destination untouched, so every iteration encrypts under the
// same keystream and the measured work is exactly the AES-CTR arithmetic.
type fixedNonce struct{}

func (fixedNonce) Read(p []byte) (int, error) { return len(p), nil }

// BenchmarkCalibration is the CI hardware-calibration loop: a fixed,
// deterministic AES-CTR encrypt/decrypt round trip over a path-sized
// buffer — the primitive that dominates every ORAM hot path — with no I/O,
// goroutines, timers, or allocation. Its ns/op measures the machine, not
// the code under review: scripts/bench_compare.sh divides each fresh
// series by the ratio of the fresh calibration to the baseline's before
// applying the regression tolerance, so bench records from different
// runner generations stay comparable. Keep this loop byte-for-byte stable
// across PRs — changing it silently re-scales every cross-record
// comparison.
func BenchmarkCalibration(b *testing.B) {
	var key crypt.Key
	for i := range key {
		key[i] = byte(i)
	}
	c := crypt.NewCipher(key, fixedNonce{})
	pt := make([]byte, 4096)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	ct := make([]byte, len(pt)+crypt.NonceSize)
	out := make([]byte, len(pt))
	b.SetBytes(int64(2 * len(pt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncryptTo(ct, pt); err != nil {
			b.Fatal(err)
		}
		if err := c.DecryptTo(out, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnforcerFetch measures the enforcer's per-request cost.
func BenchmarkEnforcerFetch(b *testing.B) {
	e, err := core.NewEnforcer(core.EnforcerConfig{
		ORAMLatency: 1488,
		Rates:       core.PaperRates(4),
		InitialRate: core.InitialRate,
		Schedule:    core.EpochSchedule{FirstLen: 1 << 21, Growth: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	var done uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = e.Fetch(done+500, uint64(i))
	}
}

// BenchmarkPathORAMAccess measures a functional recursive ORAM access
// (small tree).
func BenchmarkPathORAMAccess(b *testing.B) {
	var key crypt.Key
	o, err := pathoram.NewRecursive(pathoram.RecursiveConfig{
		DataBlocks: 512, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 2,
	}, key, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Access(pathoram.OpWrite, uint64(i%512), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second on the dynamic scheme.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workload.ByName("bzip2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(spec, sim.Config{
			Scheme: sim.DynamicORAM, Instructions: 1_000_000, WarmupInstrs: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1_000_000) // report "bytes" as instructions for MB/s ≈ MIPS
}

// BenchmarkWorkloadGen measures the instruction generator.
func BenchmarkWorkloadGen(b *testing.B) {
	g, err := workload.NewGenerator(workload.MCF(), 1<<30, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
