package sim

import (
	"testing"

	"tcoram/internal/workload"
)

// quick run sizes: calibration assertions use modest instruction counts so
// the suite stays fast; the full experiment harness uses longer runs.
const (
	qInstr  = 4_000_000
	qWarmup = 2_000_000
)

func quickRun(t *testing.T, spec workload.Spec, cfg Config) Result {
	t.Helper()
	if cfg.Instructions == 0 {
		cfg.Instructions = qInstr
	}
	if cfg.WarmupInstrs == 0 {
		cfg.WarmupInstrs = qWarmup
	}
	r, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSchemeNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Scheme: BaseDRAM}, "base_dram"},
		{Config{Scheme: BaseORAM}, "base_oram"},
		{Config{Scheme: StaticORAM, StaticRate: 300}, "static_300"},
		{Config{Scheme: StaticORAM, StaticRate: 1300}, "static_1300"},
		{Config{Scheme: DynamicORAM, NumRates: 4, EpochGrowth: 4}, "dynamic_R4_E4"},
		{Config{Scheme: DynamicORAM, NumRates: 16, EpochGrowth: 2}, "dynamic_R16_E2"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
	if BaseDRAM.String() != "base_dram" || DynamicORAM.String() != "dynamic" {
		t.Fatal("Scheme.String mismatch")
	}
}

func TestBaseDRAMIPCInPaperBand(t *testing.T) {
	// §9.1.6: typical SPEC benchmarks run at IPC 0.15–0.36 on base_dram.
	// Our synthetic analogues must stay near that band (we allow modest
	// spill for the most compute-bound kernels).
	for _, spec := range workload.Suite() {
		r := quickRun(t, spec, Config{Scheme: BaseDRAM})
		if r.IPC < 0.12 || r.IPC > 0.60 {
			t.Errorf("%s: base_dram IPC = %.3f, want ≈0.15–0.36 band", spec.ID(), r.IPC)
		}
	}
}

func TestBaseDRAMPowerScale(t *testing.T) {
	// §9.1.6: base_dram power 0.055–0.086 W; our model lands on the same
	// order (0.05–0.20 W) — `cmd/experiments -run fig6` prints the
	// measured table.
	for _, spec := range []workload.Spec{workload.MCF(), workload.Hmmer()} {
		r := quickRun(t, spec, Config{Scheme: BaseDRAM})
		if w := r.Power.Watts(); w < 0.05 || w > 0.25 {
			t.Errorf("%s: base_dram power = %.3f W, want 0.05–0.25", spec.ID(), w)
		}
	}
}

func TestBaseORAMOverheadShape(t *testing.T) {
	// §9.3: base_oram ≈ 3.35× performance over base_dram on average; mcf
	// is the most ORAM-sensitive, hmmer the least.
	mcfBase := quickRun(t, workload.MCF(), Config{Scheme: BaseDRAM})
	mcfORAM := quickRun(t, workload.MCF(), Config{Scheme: BaseORAM})
	hmBase := quickRun(t, workload.Hmmer(), Config{Scheme: BaseDRAM})
	hmORAM := quickRun(t, workload.Hmmer(), Config{Scheme: BaseORAM})
	mcfX := mcfORAM.PerfOverhead(mcfBase)
	hmX := hmORAM.PerfOverhead(hmBase)
	if mcfX < 5 || mcfX > 12 {
		t.Errorf("mcf base_oram overhead = %.2f×, want 5–12×", mcfX)
	}
	if hmX < 1.0 || hmX > 1.8 {
		t.Errorf("hmmer base_oram overhead = %.2f×, want 1.0–1.8×", hmX)
	}
	if mcfX < 3*hmX {
		t.Errorf("mcf (%.2f×) should dwarf hmmer (%.2f×)", mcfX, hmX)
	}
}

func TestStaticSchemesOrdering(t *testing.T) {
	// For a memory-bound workload, slower static rates cost more
	// performance: static_300 < static_500 < static_1300.
	spec := workload.MCF()
	s300 := quickRun(t, spec, Config{Scheme: StaticORAM, StaticRate: 300})
	s500 := quickRun(t, spec, Config{Scheme: StaticORAM, StaticRate: 500})
	s1300 := quickRun(t, spec, Config{Scheme: StaticORAM, StaticRate: 1300})
	if !(s300.Cycles < s500.Cycles && s500.Cycles < s1300.Cycles) {
		t.Fatalf("static cycle ordering violated: %d, %d, %d", s300.Cycles, s500.Cycles, s1300.Cycles)
	}
	// And a compute-bound workload burns more power at faster rates.
	h300 := quickRun(t, workload.Hmmer(), Config{Scheme: StaticORAM, StaticRate: 300})
	h1300 := quickRun(t, workload.Hmmer(), Config{Scheme: StaticORAM, StaticRate: 1300})
	if h300.Power.Watts() <= h1300.Power.Watts() {
		t.Fatalf("hmmer power at 300 (%.3f) should exceed at 1300 (%.3f)",
			h300.Power.Watts(), h1300.Power.Watts())
	}
}

func TestDynamicBeatsStaticTradeoff(t *testing.T) {
	// The paper's core claim (§9.3): the dynamic scheme approaches
	// base_oram's performance while spending far less power than a fast
	// static scheme on compute-bound workloads.
	spec := workload.Hmmer()
	dyn := quickRun(t, spec, Config{Scheme: DynamicORAM, EpochFirstLen: 1 << 19})
	s300 := quickRun(t, spec, Config{Scheme: StaticORAM, StaticRate: 300})
	if dyn.Power.Watts() >= s300.Power.Watts()*0.8 {
		t.Fatalf("dynamic power (%.3f W) should be well below static_300 (%.3f W) for hmmer",
			dyn.Power.Watts(), s300.Power.Watts())
	}
	// And the dynamic scheme stays within ~2× of base_oram's cycles.
	oram := quickRun(t, spec, Config{Scheme: BaseORAM})
	if float64(dyn.Cycles) > 2.0*float64(oram.Cycles) {
		t.Fatalf("dynamic %d cycles vs base_oram %d: too slow", dyn.Cycles, oram.Cycles)
	}
}

func TestDynamicSelectsFastRateForMemoryBound(t *testing.T) {
	r := quickRun(t, workload.MCF(), Config{Scheme: DynamicORAM, EpochFirstLen: 1 << 19})
	if len(r.RateChanges) < 2 {
		t.Fatalf("no epoch transitions: %v", r.RateChanges)
	}
	last := r.RateChanges[len(r.RateChanges)-1]
	if last.Rate != 256 {
		t.Fatalf("mcf settled on rate %d, want 256 (fastest)", last.Rate)
	}
}

func TestDynamicSelectsSlowRateForComputeBound(t *testing.T) {
	r := quickRun(t, workload.Hmmer(), Config{Scheme: DynamicORAM, EpochFirstLen: 1 << 19})
	last := r.RateChanges[len(r.RateChanges)-1]
	if last.Rate < 1290 {
		t.Fatalf("hmmer settled on rate %d, want ≥ 1290", last.Rate)
	}
}

func TestWindowsCoverRun(t *testing.T) {
	r := quickRun(t, workload.Libquantum(), Config{
		Scheme: BaseORAM, Instructions: 3_000_000, WindowInstrs: 500_000,
	})
	if len(r.Windows) != 6 {
		t.Fatalf("windows = %d, want 6", len(r.Windows))
	}
	var cycles uint64
	for i, w := range r.Windows {
		cycles += w.Cycles
		if w.IPC <= 0 {
			t.Fatalf("window %d IPC = %v", i, w.IPC)
		}
		if w.EndInstr != uint64(i+1)*500_000 {
			t.Fatalf("window %d ends at instr %d", i, w.EndInstr)
		}
	}
	if cycles > r.Cycles {
		t.Fatalf("window cycles %d exceed total %d", cycles, r.Cycles)
	}
}

func TestWindowAccessRates(t *testing.T) {
	// Fig 2's metric: average instructions between ORAM accesses, per
	// window; input variants must differ strongly.
	diff := quickRun(t, workload.PerlbenchInput("diffmail"), Config{
		Scheme: BaseORAM, Instructions: 3_000_000, WindowInstrs: 500_000,
	})
	split := quickRun(t, workload.PerlbenchInput("splitmail"), Config{
		Scheme: BaseORAM, Instructions: 3_000_000, WindowInstrs: 500_000,
	})
	avg := func(r Result) float64 {
		var s float64
		for _, w := range r.Windows {
			s += w.InstrPerMem
		}
		return s / float64(len(r.Windows))
	}
	ratio := avg(split) / avg(diff)
	if ratio < 20 {
		t.Fatalf("splitmail/diffmail access-gap ratio = %.1f, want ≥ 20 (paper: ~80×)", ratio)
	}
}

func TestLeakageBitsPerScheme(t *testing.T) {
	static := quickRun(t, workload.Hmmer(), Config{Scheme: StaticORAM, StaticRate: 300, Instructions: 1_000_000, WarmupInstrs: 1})
	if static.LeakageBits != 0 {
		t.Fatalf("static leakage = %v, want 0", static.LeakageBits)
	}
	dyn := quickRun(t, workload.Hmmer(), Config{Scheme: DynamicORAM, NumRates: 4, EpochGrowth: 4, Instructions: 1_000_000, WarmupInstrs: 1})
	if float64(dyn.LeakageBits) != 32 {
		t.Fatalf("dynamic_R4_E4 leakage = %v, want 32 bits", dyn.LeakageBits)
	}
	oram := quickRun(t, workload.Hmmer(), Config{Scheme: BaseORAM, Instructions: 1_000_000, WarmupInstrs: 1})
	if float64(oram.LeakageBits) < 1e9 {
		t.Fatalf("base_oram leakage = %v, want astronomical", oram.LeakageBits)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := quickRun(t, workload.Gobmk(), Config{Scheme: DynamicORAM, Instructions: 2_000_000, Seed: 9})
	b := quickRun(t, workload.Gobmk(), Config{Scheme: DynamicORAM, Instructions: 2_000_000, Seed: 9})
	if a.Cycles != b.Cycles || a.Mem != b.Mem {
		t.Fatalf("nondeterministic run: %d/%d cycles", a.Cycles, b.Cycles)
	}
}

func TestSeedChangesRun(t *testing.T) {
	a := quickRun(t, workload.Gobmk(), Config{Scheme: BaseDRAM, Instructions: 2_000_000, Seed: 1})
	b := quickRun(t, workload.Gobmk(), Config{Scheme: BaseDRAM, Instructions: 2_000_000, Seed: 2})
	if a.Cycles == b.Cycles {
		t.Fatal("different seeds produced identical cycle counts")
	}
}

func TestDummyFractionReported(t *testing.T) {
	// §9.3 footnote: on average 34% of the dynamic scheme's accesses are
	// dummies. Check the statistic is populated and sane.
	r := quickRun(t, workload.Sjeng(), Config{Scheme: DynamicORAM, EpochFirstLen: 1 << 19})
	if f := r.Mem.DummyFraction(); f <= 0 || f >= 1 {
		t.Fatalf("dummy fraction = %v, want in (0,1)", f)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Run(workload.MCF(), Config{Scheme: Scheme(99)}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Run(workload.Spec{}, Config{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestNoWarmupSkipsWarmup(t *testing.T) {
	r := quickRun(t, workload.Hmmer(), Config{Scheme: BaseDRAM, Instructions: 500_000, NoWarmup: true, WarmupInstrs: 1})
	if r.Instrs != 500_000 {
		t.Fatalf("instrs = %d", r.Instrs)
	}
}

func TestShieldedDRAMScheme(t *testing.T) {
	// §10: the enforcer works without ORAM given indistinguishable dummy
	// DRAM operations. Timing is protected (zero leakage bits) at far
	// lower cost than ORAM-based schemes.
	spec := workload.Sjeng()
	sd := quickRun(t, spec, Config{Scheme: ShieldedDRAM, StaticRate: 300})
	if sd.LeakageBits != 0 {
		t.Fatalf("shielded_dram leakage = %v, want 0", sd.LeakageBits)
	}
	if sd.Mem.DummyAccesses == 0 {
		t.Fatal("shielded_dram issued no dummy accesses")
	}
	// Far cheaper than the ORAM-based static scheme (one line per slot
	// instead of 24.5 KB per slot), both in time and energy.
	so := quickRun(t, spec, Config{Scheme: StaticORAM, StaticRate: 300})
	if sd.Cycles >= so.Cycles {
		t.Fatalf("shielded_dram (%d cycles) should beat static ORAM (%d)", sd.Cycles, so.Cycles)
	}
	if sd.Power.Watts() >= so.Power.Watts()/2 {
		t.Fatalf("shielded_dram power %.3f W should be well under static ORAM %.3f W",
			sd.Power.Watts(), so.Power.Watts())
	}
	// But slower than raw base_dram: the slot grid delays misses.
	bd := quickRun(t, spec, Config{Scheme: BaseDRAM})
	if sd.Cycles <= bd.Cycles {
		t.Fatal("rate enforcement should cost cycles vs unshielded DRAM")
	}
	if got := sd.Config.Name(); got != "shielded_dram_300" {
		t.Fatalf("Name() = %q", got)
	}
	if ShieldedDRAM.String() != "shielded_dram" {
		t.Fatal("Scheme.String mismatch")
	}
}
