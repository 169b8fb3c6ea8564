// Package sim wires the substrates into the paper's evaluated systems: a
// workload generator feeding the in-order core, the Table 1 cache
// hierarchy, and one of the §9.1.6 memory controllers behind the LLC —
// base_dram (flat-latency DRAM), base_oram (unshielded Path ORAM), a static
// shielded scheme, or the dynamic epoch/learner scheme. It produces the
// run-level and windowed statistics every figure of §9 is built from.
package sim

import (
	"fmt"

	"tcoram/internal/cache"
	"tcoram/internal/core"
	"tcoram/internal/cpu"
	"tcoram/internal/leakage"
	"tcoram/internal/pathoram"
	"tcoram/internal/power"
	"tcoram/internal/workload"
)

// Scheme identifies a memory-controller configuration from §9.1.6.
type Scheme uint8

const (
	// BaseDRAM is the insecure flat-latency DRAM baseline.
	BaseDRAM Scheme = iota
	// BaseORAM is Path ORAM with no timing protection.
	BaseORAM
	// StaticORAM is a shielded ORAM at a single fixed rate (zero ORAM
	// timing leakage).
	StaticORAM
	// DynamicORAM is the paper's contribution: epochs + rate learner.
	DynamicORAM
	// ShieldedDRAM is §10's "scheme without ORAM": rate enforcement over
	// commodity DRAM, with dummies as fixed-address reads. It assumes the
	// extra mechanisms §10 lists (row buffers disabled or reset to a
	// public state after each access, DRAM physically partitioned) so
	// that dummy and real operations are indistinguishable; addresses
	// remain UNPROTECTED — this guards only the timing channel.
	ShieldedDRAM
)

func (s Scheme) String() string {
	switch s {
	case BaseDRAM:
		return "base_dram"
	case BaseORAM:
		return "base_oram"
	case StaticORAM:
		return "static"
	case DynamicORAM:
		return "dynamic"
	case ShieldedDRAM:
		return "shielded_dram"
	}
	return "unknown"
}

// Config describes one simulation run.
type Config struct {
	// Scheme selects the memory controller.
	Scheme Scheme
	// StaticRate is the fixed rate for StaticORAM (e.g. 300, 500, 1300).
	StaticRate uint64
	// NumRates is |R| for DynamicORAM (default 4).
	NumRates int
	// EpochGrowth is the epoch length multiplier for DynamicORAM
	// (2 = doubling, 4, 8, 16; default 4).
	EpochGrowth uint64
	// EpochFirstLen is the simulated first-epoch length in cycles.
	// Defaults to 2^21 — the paper's 2^30 scaled down so scaled runs
	// experience the same number of transitions. Leakage accounting always
	// uses the paper-scale schedule.
	EpochFirstLen uint64
	// ORAMLatency is OLAT in cycles (default: the paper's 1488).
	ORAMLatency uint64
	// DRAMLatency is base_dram's flat latency (default 40).
	DRAMLatency uint64
	// Instructions is the measured run length (default 20M).
	Instructions uint64
	// WarmupInstrs is executed before measurement begins: caches warm up
	// and then all statistics, the epoch schedule and leakage accounting
	// reset — the scaled equivalent of the paper's 1–20 B instruction
	// fast-forward (§9.1.1). Default 3M; set NoWarmup to disable.
	WarmupInstrs uint64
	// NoWarmup disables the warmup phase (used by security tests that
	// need the slot trace anchored at cycle 0).
	NoWarmup bool
	// WindowInstrs is the stats window size (default 1M; the paper uses
	// 1B-instruction windows on 200B-instruction runs — same 1:200 scaled
	// granularity).
	WindowInstrs uint64
	// Seed drives the workload generator and core branch model.
	Seed uint64
	// Predictor/Discretizer select learner variants (ablations).
	Predictor   core.Predictor
	Discretizer core.Discretizer
	// RecordSlots forwards to the enforcer (adversary/security studies).
	RecordSlots bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.NumRates == 0 {
		c.NumRates = 4
	}
	if c.EpochGrowth == 0 {
		c.EpochGrowth = 4
	}
	if c.EpochFirstLen == 0 {
		c.EpochFirstLen = 1 << 21
	}
	if c.ORAMLatency == 0 {
		c.ORAMLatency = pathoram.PaperAccessLatency
	}
	if c.DRAMLatency == 0 {
		c.DRAMLatency = 40
	}
	if c.Instructions == 0 {
		c.Instructions = 20_000_000
	}
	if c.WarmupInstrs == 0 && !c.NoWarmup {
		c.WarmupInstrs = 3_000_000
	}
	if c.NoWarmup {
		c.WarmupInstrs = 0
	}
	if c.WindowInstrs == 0 {
		c.WindowInstrs = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StaticRate == 0 {
		c.StaticRate = 300
	}
	return c
}

// Name returns the configuration label used in the paper's figures, e.g.
// "base_oram", "static_300", "dynamic_R4_E4".
func (c Config) Name() string {
	switch c.Scheme {
	case BaseDRAM:
		return "base_dram"
	case BaseORAM:
		return "base_oram"
	case StaticORAM:
		return fmt.Sprintf("static_%d", c.withDefaults().StaticRate)
	case DynamicORAM:
		d := c.withDefaults()
		return fmt.Sprintf("dynamic_R%d_E%d", d.NumRates, d.EpochGrowth)
	case ShieldedDRAM:
		return fmt.Sprintf("shielded_dram_%d", c.withDefaults().StaticRate)
	}
	return "unknown"
}

// Window is one fixed-instruction-count stats window (Fig 2, Fig 7).
type Window struct {
	EndInstr    uint64
	EndCycle    uint64
	Cycles      uint64 // cycles spent in this window
	RealORAM    uint64 // real ORAM accesses (or DRAM fetches) this window
	DummyORAM   uint64
	IPC         float64
	InstrPerMem float64 // average instructions between memory accesses
}

// Result is the outcome of one run.
type Result struct {
	Config    Config
	Workload  string
	Instrs    uint64
	Cycles    uint64
	IPC       float64
	Core      cpu.Stats
	Cache     cache.Stats
	Mem       core.Stats // zero-valued for BaseDRAM
	LineXfers uint64     // BaseDRAM line transfers
	Power     power.Breakdown
	Windows   []Window
	// RateChanges is the enforcer history (DynamicORAM/StaticORAM).
	RateChanges []core.RateChange
	// Slots is the recorded access trace when RecordSlots was set.
	Slots []core.Slot
	// LeakageBits is the paper-scale accounting bound for this scheme's
	// ORAM timing channel.
	LeakageBits leakage.Bits
}

// PerfOverhead returns this result's slowdown versus a baseline run of the
// same workload (cycles ratio at equal instruction count).
func (r Result) PerfOverhead(base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// syncer is the optional controller interface for advancing background
// work (dummy slots) to a point in time.
type syncer interface{ Sync(t uint64) }

// Run executes one simulation and returns its result.
func Run(spec workload.Spec, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	// Phase weights span the whole stream including warmup, so a phase at
	// "60% of the run" lands at 60% of the measured instructions after
	// the warmup prefix is consumed.
	gen, err := workload.NewGenerator(spec, cfg.WarmupInstrs+cfg.Instructions, cfg.Seed)
	if err != nil {
		return Result{}, err
	}

	// Memory controller.
	var (
		port    cache.MemoryPort
		flat    *core.FlatMemory
		unshld  *core.UnshieldedORAM
		shld    *core.Enforcer
		accBits leakage.Bits
	)
	switch cfg.Scheme {
	case BaseDRAM:
		flat = core.NewFlatMemory(cfg.DRAMLatency)
		port = flat
	case BaseORAM:
		unshld = core.NewUnshieldedORAM(cfg.ORAMLatency)
		unshld.RecordSlots = cfg.RecordSlots
		port = unshld
		accBits = leakage.UnprotectedBitsApprox(float64(core.PaperTmax), int(cfg.ORAMLatency))
	case StaticORAM:
		shld, err = core.NewEnforcer(core.EnforcerConfig{
			ORAMLatency: cfg.ORAMLatency,
			Rates:       []uint64{cfg.StaticRate},
			InitialRate: cfg.StaticRate,
			RecordSlots: cfg.RecordSlots,
		})
		if err != nil {
			return Result{}, err
		}
		port = shld
		accBits = leakage.StaticBits()
	case DynamicORAM:
		rates, rerr := core.LogSpacedRates(cfg.NumRates, core.MinRate, core.MaxRate)
		if rerr != nil {
			return Result{}, rerr
		}
		shld, err = core.NewEnforcer(core.EnforcerConfig{
			ORAMLatency: cfg.ORAMLatency,
			Rates:       rates,
			InitialRate: core.InitialRate,
			Schedule:    core.EpochSchedule{FirstLen: cfg.EpochFirstLen, Growth: cfg.EpochGrowth},
			Predictor:   cfg.Predictor,
			Discretizer: cfg.Discretizer,
			RecordSlots: cfg.RecordSlots,
		})
		if err != nil {
			return Result{}, err
		}
		port = shld
		accBits = leakage.PaperBudget(cfg.NumRates, cfg.EpochGrowth).ORAMBits()
	case ShieldedDRAM:
		// §10: the enforcer over commodity DRAM — "slots" are single
		// line transfers at the flat DRAM latency.
		shld, err = core.NewEnforcer(core.EnforcerConfig{
			ORAMLatency: cfg.DRAMLatency,
			Rates:       []uint64{cfg.StaticRate},
			InitialRate: cfg.StaticRate,
			RecordSlots: cfg.RecordSlots,
		})
		if err != nil {
			return Result{}, err
		}
		port = shld
		accBits = leakage.StaticBits()
	default:
		return Result{}, fmt.Errorf("sim: unknown scheme %d", cfg.Scheme)
	}

	hier := cache.NewHierarchy(cache.DefaultConfig(), port)
	c := cpu.NewCore(cpu.Config{
		CodeBytes:       gen.CodeBytes(),
		BranchTakenProb: 128,
		Seed:            cfg.Seed,
	}, hier)

	// Warmup: execute, then reset all statistics and re-anchor the epoch
	// schedule (fast-forward methodology, §9.1.1).
	if cfg.WarmupInstrs > 0 {
		for i := uint64(0); i < cfg.WarmupInstrs; i++ {
			ins, ok := gen.Next()
			if !ok {
				break
			}
			c.Step(ins)
		}
		if s, ok := port.(syncer); ok {
			s.Sync(c.Now())
		}
		c.ResetStats()
		hier.ResetStats()
		switch {
		case flat != nil:
			flat.ResetStats()
		case unshld != nil:
			unshld.ResetStats()
		default:
			shld.ResetAt(c.Now())
		}
	}
	measureStart := c.Now()

	// Main loop with windowed stats.
	res := Result{Config: cfg, Workload: spec.ID()}
	var (
		winStartCycle = measureStart
		winStartReal  uint64
		winStartDummy uint64
		nextWindow    = cfg.WindowInstrs
	)
	memStats := func() (real, dummy uint64) {
		switch {
		case flat != nil:
			return flat.Fetches + flat.Writebacks, 0
		case unshld != nil:
			s := unshld.Stats()
			return s.RealAccesses, 0
		default:
			s := shld.Stats()
			return s.RealAccesses, s.DummyAccesses
		}
	}
	for i := uint64(0); i < cfg.Instructions; i++ {
		ins, ok := gen.Next()
		if !ok {
			break
		}
		c.Step(ins)
		if c.Instructions() >= nextWindow {
			now := c.Now()
			if s, ok := port.(syncer); ok {
				s.Sync(now)
			}
			real, dummy := memStats()
			w := Window{
				EndInstr:  c.Instructions(),
				EndCycle:  now,
				Cycles:    now - winStartCycle,
				RealORAM:  real - winStartReal,
				DummyORAM: dummy - winStartDummy,
			}
			if w.Cycles > 0 {
				w.IPC = float64(cfg.WindowInstrs) / float64(w.Cycles)
			}
			if w.RealORAM > 0 {
				w.InstrPerMem = float64(cfg.WindowInstrs) / float64(w.RealORAM)
			} else {
				w.InstrPerMem = float64(cfg.WindowInstrs)
			}
			res.Windows = append(res.Windows, w)
			winStartCycle, winStartReal, winStartDummy = now, real, dummy
			nextWindow += cfg.WindowInstrs
		}
	}
	end := hier.Flush(c.Now())
	if s, ok := port.(syncer); ok {
		s.Sync(end)
	}

	res.Instrs = c.Instructions()
	res.Cycles = end - measureStart
	res.Core = c.Stats()
	res.Core.Cycles = res.Cycles
	res.Cache = hier.Stats()
	if res.Cycles > 0 {
		res.IPC = float64(res.Instrs) / float64(res.Cycles)
	}
	res.LeakageBits = accBits

	model := power.NewModel()
	switch {
	case flat != nil:
		res.LineXfers = flat.LineTransfers()
		res.Power = model.EvaluateDRAM(res.Core, res.Cache, flat)
	case unshld != nil:
		res.Mem = unshld.Stats()
		res.Slots = unshld.Slots()
		res.Power = model.EvaluateORAM(res.Core, res.Cache, res.Mem)
	default:
		res.Mem = shld.Stats()
		res.RateChanges = shld.RateChanges()
		res.Slots = shld.Slots()
		if cfg.Scheme == ShieldedDRAM {
			// Every slot — real or dummy — moves one cache line through
			// the DRAM controller (plus the absorbed writebacks).
			res.LineXfers = res.Mem.TotalAccesses() + res.Mem.WritebacksDone
			res.Power = power.Breakdown{
				CoreNJ:   model.CoreEnergy(res.Core, res.Cache),
				MemoryNJ: model.DRAMEnergy(res.LineXfers),
				Cycles:   res.Core.Cycles,
			}
		} else {
			res.Power = model.EvaluateORAM(res.Core, res.Cache, res.Mem)
		}
	}
	return res, nil
}
