// Package experiments regenerates every table and figure of the paper's
// evaluation (§9) from the simulator: Table 1/2 configuration dumps, the
// Fig 2 input-dependence study, the Fig 5 static-rate sweep, the Fig 6 main
// comparison, the Fig 7 stability traces, the Fig 8a/8b leakage-reduction
// studies, the §9.3 headline deltas and the Example 2.1/6.1 leakage
// arithmetic. Each experiment returns a stats.Table whose rows mirror what
// the paper plots; cmd/experiments prints them, and the headline table
// sets each measured value beside the paper's.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tcoram/internal/core"
	"tcoram/internal/crypt"
	"tcoram/internal/dram"
	"tcoram/internal/leakage"
	"tcoram/internal/pathoram"
	"tcoram/internal/power"
	"tcoram/internal/sim"
	"tcoram/internal/stats"
	"tcoram/internal/workload"
)

// Scale selects run lengths: Quick for benches/CI, Full for
// `cmd/experiments -scale full`.
type Scale struct {
	Instructions  uint64
	Warmup        uint64
	WindowInstrs  uint64
	EpochFirstLen uint64
}

// Quick is the fast scale used by `go test -bench` and smoke runs.
func Quick() Scale {
	return Scale{Instructions: 3_000_000, Warmup: 1_500_000, WindowInstrs: 500_000, EpochFirstLen: 1 << 18}
}

// Full is the scale `cmd/experiments -scale full` runs (≈ the paper's 200 B
// instructions scaled 1:10, with the epoch schedule scaled to match, so a
// scaled run sees as many rate transitions as a paper-length one; leakage
// accounting always uses the paper's schedule).
func Full() Scale {
	return Scale{Instructions: 20_000_000, Warmup: 4_000_000, WindowInstrs: 1_000_000, EpochFirstLen: 1 << 20}
}

func (s Scale) config(scheme sim.Scheme) sim.Config {
	return sim.Config{
		Scheme:        scheme,
		Instructions:  s.Instructions,
		WarmupInstrs:  s.Warmup,
		WindowInstrs:  s.WindowInstrs,
		EpochFirstLen: s.EpochFirstLen,
	}
}

// Parallelism bounds the worker pool the figure drivers fan their
// independent sim.Run calls out on. It defaults to the core count; the
// serial/parallel equivalence test overrides it. Values < 1 run serially.
var Parallelism = runtime.NumCPU()

// simJob is one (workload, configuration) cell of a figure.
type simJob struct {
	spec workload.Spec
	cfg  sim.Config
}

// memo keeps every result runAll has computed, for the life of the
// process: a sim.Run is a pure function of its spec and configuration, so a
// job that several figures (or several tests) share runs once. Jobs are
// keyed by the spec's whole content rather than its ID, so a hand-built
// spec that reuses a catalogue name cannot alias a catalogue entry.
var memo struct {
	sync.Mutex
	results map[jobKey]sim.Result
}

// jobKey identifies a simJob by value.
type jobKey struct {
	spec string // the spec's every field, %#v-formatted
	cfg  sim.Config
}

// runAll executes the jobs not already in memo on a bounded worker pool and
// returns every job's result in job order. Every sim.Run builds its own
// generator, core and controller from cfg.Seed — no shared mutable state —
// so the result slice is identical to running the jobs serially, and every
// aggregation loop below consumes it in the same deterministic order it
// would have used before parallelization. Each result is the caller's own
// copy, so no caller can change what memo hands the next. Errors panic
// after all workers drain, matching run().
func runAll(jobs []simJob) []sim.Result {
	results := make([]sim.Result, len(jobs))
	keys := make([]jobKey, len(jobs))
	var todo []int
	memo.Lock()
	for i, j := range jobs {
		keys[i] = jobKey{fmt.Sprintf("%#v", j.spec), j.cfg}
		if r, ok := memo.results[keys[i]]; ok {
			results[i] = r
		} else {
			todo = append(todo, i)
		}
	}
	memo.Unlock()

	errs := make([]error, len(jobs))
	workers := min(Parallelism, len(todo))
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1))
				if n >= len(todo) {
					return
				}
				i := todo[n]
				results[i], errs[i] = sim.Run(jobs[i].spec, jobs[i].cfg)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("experiments: %s/%s: %v", jobs[i].spec.ID(), jobs[i].cfg.Name(), err))
		}
	}

	memo.Lock()
	if memo.results == nil {
		memo.results = make(map[jobKey]sim.Result)
	}
	for _, i := range todo {
		memo.results[keys[i]] = results[i]
	}
	memo.Unlock()
	for i, r := range results {
		r.Windows = slices.Clone(r.Windows)
		r.RateChanges = slices.Clone(r.RateChanges)
		r.Slots = slices.Clone(r.Slots)
		results[i] = r
	}
	return results
}

// Table1 dumps the timing model (Table 1) alongside the values the live
// configuration actually uses.
func Table1() *stats.Table {
	t := stats.NewTable("Table 1: timing model (processor clock = 1 GHz)",
		"parameter", "value")
	dcfg := dram.Default()
	rows := [][2]string{
		{"core model", "in-order, single-issue"},
		{"int arith/mult/div latency", "1/4/12 cycles"},
		{"fp arith/mult/div latency", "2/4/10 cycles"},
		{"write buffer", "8 entries, non-blocking"},
		{"L1 I/D cache", "32 KB, 4-way"},
		{"L2 (LLC)", "1 MB, 16-way, inclusive"},
		{"cache/ORAM block size", "64 B"},
		{"DRAM channels", fmt.Sprintf("%d", dcfg.Channels)},
		{"DRAM banks/channel", fmt.Sprintf("%d", dcfg.BanksPerChannel)},
		{"pin bandwidth", fmt.Sprintf("%.1f B/CPU-cycle aggregate", dcfg.PinBandwidthBytesPerCPUCycle())},
		{"base_dram latency", fmt.Sprintf("%d cycles (flat)", dram.FlatLatency)},
		{"ORAM access latency (paper)", fmt.Sprintf("%d cycles", pathoram.PaperAccessLatency)},
	}
	est := pathoram.EstimateAccessLatency(pathoram.PaperConfig(), dcfg, crypt.DefaultLatency())
	rows = append(rows,
		[2]string{"ORAM access latency (our DRAM model)", fmt.Sprintf("%d cycles", est.CPUCycles)},
		[2]string{"ORAM bytes/access (paper)", fmt.Sprintf("%d B", pathoram.PaperAccessBytes)},
		[2]string{"ORAM bytes/access (our geometry)", fmt.Sprintf("%d B", est.BytesMoved)},
	)
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t
}

// Table2 dumps the energy model (Table 2) and the derived per-access ORAM
// energy (§9.1.4: ≈984 nJ).
func Table2() *stats.Table {
	c := power.Table2()
	t := stats.NewTable("Table 2: energy model (45 nm), nJ per event",
		"component", "energy (nJ)")
	t.AddRow("ALU/FPU per instruction", c.ALUPerInstr)
	t.AddRow("regfile int/fp per instruction", fmt.Sprintf("%.4f/%.4f", c.RegFileInt, c.RegFileFP))
	t.AddRow("fetch buffer (256 b)", c.FetchBuffer)
	t.AddRow("L1I hit/refill (line)", c.L1IHit)
	t.AddRow("L1D hit (64 b)", c.L1DHit)
	t.AddRow("L1D refill (line)", c.L1DRefill)
	t.AddRow("L2 hit/refill (line)", c.L2HitRefill)
	t.AddRow("DRAM controller (line)", c.DRAMCtrlLine)
	t.AddRow("L1I/L1D leakage per cycle", fmt.Sprintf("%.3f/%.3f", c.L1ILeakPerCycle, c.L1DLeakPerCycle))
	t.AddRow("L2 leakage per hit/refill", c.L2LeakPerEvent)
	t.AddRow("AES per 16 B chunk", c.AESPerChunk)
	t.AddRow("stash per 16 B rd/wr", c.StashPerChunk)
	t.AddRow("ORAM access total (2×758 chunks, 1984 DRAM cyc)",
		fmt.Sprintf("%.0f", c.ORAMAccessEnergy(power.PaperORAMAccess())))
	return t
}

// Fig2 reproduces Figure 2: ORAM access rate over time for perlbench
// (diffmail vs splitmail) and astar (rivers vs biglakes), reported as
// average instructions between two ORAM accesses per window.
func Fig2(s Scale) *stats.Table {
	t := stats.NewTable("Figure 2: ORAM access rate across inputs (instructions between accesses, per window)",
		"benchmark/input", "window", "instr-between-accesses")
	specs := []workload.Spec{
		workload.PerlbenchInput("diffmail"),
		workload.PerlbenchInput("splitmail"),
		workload.AstarInput("rivers"),
		workload.AstarInput("biglakes"),
	}
	jobs := make([]simJob, len(specs))
	for i, spec := range specs {
		jobs[i] = simJob{spec, s.config(sim.BaseORAM)}
	}
	for i, r := range runAll(jobs) {
		for w, win := range r.Windows {
			t.AddRow(specs[i].ID(), w, fmt.Sprintf("%.0f", win.InstrPerMem))
		}
	}
	return t
}

// Fig5Point is one sweep point of Figure 5.
type Fig5Point struct {
	Rate           uint64
	PerfOverheadX  float64
	PowerOverheadX float64
}

// Fig5Sweep runs the §9.2 static-rate sweep for one workload and returns
// the overhead-vs-rate curve (both overheads relative to base_dram).
func Fig5Sweep(spec workload.Spec, s Scale) []Fig5Point {
	rates := []uint64{100, 180, 256, 450, 800, 1300, 2300, 4100, 7300, 13000, 23000, 32768, 58000, 100000}
	jobs := make([]simJob, 0, 1+len(rates))
	jobs = append(jobs, simJob{spec, s.config(sim.BaseDRAM)})
	for _, rate := range rates {
		cfg := s.config(sim.StaticORAM)
		cfg.StaticRate = rate
		jobs = append(jobs, simJob{spec, cfg})
	}
	results := runAll(jobs)
	base := results[0]
	out := make([]Fig5Point, 0, len(rates))
	for i, rate := range rates {
		r := results[1+i]
		out = append(out, Fig5Point{
			Rate:           rate,
			PerfOverheadX:  r.PerfOverhead(base),
			PowerOverheadX: r.Power.Watts() / base.Power.Watts(),
		})
	}
	return out
}

// Fig5 reproduces Figure 5 for mcf (memory bound) and h264ref (compute
// bound).
func Fig5(s Scale) *stats.Table {
	t := stats.NewTable("Figure 5: power vs performance overhead across static rates (× base_dram)",
		"benchmark", "rate", "perf-X", "power-X")
	for _, spec := range []workload.Spec{workload.MCF(), workload.H264ref()} {
		for _, p := range Fig5Sweep(spec, s) {
			t.AddRow(spec.ID(), p.Rate, p.PerfOverheadX, p.PowerOverheadX)
		}
	}
	return t
}

// Fig6Row is one benchmark × scheme cell of Figure 6.
type Fig6Row struct {
	Benchmark     string
	Scheme        string
	PerfOverheadX float64
	PowerWatts    float64
	CoreWatts     float64
	MemWatts      float64
	DummyFrac     float64
	LeakageBits   float64
}

// fig6Schemes are the five compared configurations of §9.1.6/§9.3.
func fig6Schemes(s Scale) []sim.Config {
	dyn := s.config(sim.DynamicORAM)
	dyn.NumRates = 4
	dyn.EpochGrowth = 4
	s300 := s.config(sim.StaticORAM)
	s300.StaticRate = 300
	s500 := s.config(sim.StaticORAM)
	s500.StaticRate = 500
	s1300 := s.config(sim.StaticORAM)
	s1300.StaticRate = 1300
	return []sim.Config{s.config(sim.BaseORAM), dyn, s300, s500, s1300}
}

// Fig6Rows computes the full Figure 6 data set.
func Fig6Rows(s Scale) []Fig6Row {
	var rows []Fig6Row
	suite := workload.Suite()
	schemes := fig6Schemes(s)
	stride := 1 + len(schemes)
	jobs := make([]simJob, 0, len(suite)*stride)
	for _, spec := range suite {
		jobs = append(jobs, simJob{spec, s.config(sim.BaseDRAM)})
		for _, cfg := range schemes {
			jobs = append(jobs, simJob{spec, cfg})
		}
	}
	results := runAll(jobs)
	sums := map[string]*Fig6Row{}
	order := []string{}
	for si, spec := range suite {
		base := results[si*stride]
		for ci, cfg := range schemes {
			r := results[si*stride+1+ci]
			row := Fig6Row{
				Benchmark:     spec.ID(),
				Scheme:        cfg.Name(),
				PerfOverheadX: r.PerfOverhead(base),
				PowerWatts:    r.Power.Watts(),
				CoreWatts:     r.Power.CoreWatts(),
				MemWatts:      r.Power.MemoryWatts(),
				DummyFrac:     r.Mem.DummyFraction(),
				LeakageBits:   float64(r.LeakageBits),
			}
			rows = append(rows, row)
			agg, ok := sums[cfg.Name()]
			if !ok {
				agg = &Fig6Row{Benchmark: "Avg", Scheme: cfg.Name(), LeakageBits: row.LeakageBits}
				sums[cfg.Name()] = agg
				order = append(order, cfg.Name())
			}
			agg.PerfOverheadX += row.PerfOverheadX / float64(len(suite))
			agg.PowerWatts += row.PowerWatts / float64(len(suite))
			agg.CoreWatts += row.CoreWatts / float64(len(suite))
			agg.MemWatts += row.MemWatts / float64(len(suite))
			agg.DummyFrac += row.DummyFrac / float64(len(suite))
		}
	}
	for _, name := range order {
		rows = append(rows, *sums[name])
	}
	return rows
}

// Fig6 renders the main-result table (Figure 6: performance overhead and
// power breakdown per benchmark and scheme, plus the Avg column).
func Fig6(s Scale) *stats.Table {
	t := stats.NewTable("Figure 6: performance overhead (× base_dram) and power breakdown",
		"benchmark", "scheme", "perf-X", "power-W", "core-W", "mem-W", "dummy-frac", "leak-bits")
	for _, r := range Fig6Rows(s) {
		t.AddRow(r.Benchmark, r.Scheme, r.PerfOverheadX, r.PowerWatts, r.CoreWatts, r.MemWatts, r.DummyFrac,
			fmt.Sprintf("%.0f", math.Min(r.LeakageBits, 1e18)))
	}
	return t
}

// Fig7 reproduces Figure 7: IPC over instruction windows for libquantum,
// gobmk and h264ref under base_oram, dynamic_R4_E2 and static_1300, with
// the dynamic scheme's epoch transitions marked.
func Fig7(s Scale) *stats.Table {
	t := stats.NewTable("Figure 7: IPC per window (epoch transitions marked for dynamic_R4_E2)",
		"benchmark", "scheme", "window", "IPC", "epoch-mark")
	dyn := s.config(sim.DynamicORAM)
	dyn.NumRates = 4
	dyn.EpochGrowth = 2
	s1300 := s.config(sim.StaticORAM)
	s1300.StaticRate = 1300
	names := []string{"libquantum", "gobmk", "h264ref"}
	cfgs := []sim.Config{s.config(sim.BaseORAM), dyn, s1300}
	jobs := make([]simJob, 0, len(names)*len(cfgs))
	specs := make([]workload.Spec, len(names))
	for i, name := range names {
		specs[i], _ = workload.ByName(name)
		for _, cfg := range cfgs {
			jobs = append(jobs, simJob{specs[i], cfg})
		}
	}
	results := runAll(jobs)
	for ni, spec := range specs {
		for ci, cfg := range cfgs {
			r := results[ni*len(cfgs)+ci]
			marks := map[int]string{}
			if cfg.Scheme == sim.DynamicORAM {
				// Attribute each transition to the window containing it.
				for _, rc := range r.RateChanges[1:] {
					for i, w := range r.Windows {
						if rc.Cycle <= w.EndCycle {
							marks[i] = fmt.Sprintf("e%d->rate %d", rc.Epoch, rc.Rate)
							break
						}
					}
				}
			}
			for i, w := range r.Windows {
				t.AddRow(spec.ID(), cfg.Name(), i, fmt.Sprintf("%.4f", w.IPC), marks[i])
			}
		}
	}
	return t
}

// Fig8a reproduces Figure 8a: varying |R| at epoch doubling.
func Fig8a(s Scale) *stats.Table {
	t := stats.NewTable("Figure 8a: varying rate count |R| (dynamic_R*_E2)",
		"benchmark", "scheme", "perf-X", "power-W", "leak-bits")
	addDynamicStudy(t, s, []int{16, 8, 4, 2}, []uint64{2, 2, 2, 2})
	return t
}

// Fig8b reproduces Figure 8b: varying epoch growth at |R| = 4.
func Fig8b(s Scale) *stats.Table {
	t := stats.NewTable("Figure 8b: varying epoch growth |E| (dynamic_R4_E*)",
		"benchmark", "scheme", "perf-X", "power-W", "leak-bits")
	addDynamicStudy(t, s, []int{4, 4, 4, 4}, []uint64{2, 4, 8, 16})
	return t
}

func addDynamicStudy(t *stats.Table, s Scale, numRates []int, growth []uint64) {
	suite := workload.Suite()
	type agg struct {
		perf, pw float64
		leak     float64
		name     string
	}
	aggs := make([]agg, len(numRates))
	cfgs := make([]sim.Config, len(numRates))
	for i := range numRates {
		cfgs[i] = s.config(sim.DynamicORAM)
		cfgs[i].NumRates = numRates[i]
		cfgs[i].EpochGrowth = growth[i]
	}
	stride := 1 + len(cfgs)
	jobs := make([]simJob, 0, len(suite)*stride)
	for _, spec := range suite {
		jobs = append(jobs, simJob{spec, s.config(sim.BaseDRAM)})
		for _, cfg := range cfgs {
			jobs = append(jobs, simJob{spec, cfg})
		}
	}
	results := runAll(jobs)
	for si, spec := range suite {
		base := results[si*stride]
		for i, cfg := range cfgs {
			r := results[si*stride+1+i]
			t.AddRow(spec.ID(), cfg.Name(), r.PerfOverhead(base), r.Power.Watts(),
				fmt.Sprintf("%.0f", float64(r.LeakageBits)))
			aggs[i].perf += r.PerfOverhead(base) / float64(len(suite))
			aggs[i].pw += r.Power.Watts() / float64(len(suite))
			aggs[i].leak = float64(r.LeakageBits)
			aggs[i].name = cfg.Name()
		}
	}
	for _, a := range aggs {
		t.AddRow("Avg", a.name, a.perf, a.pw, fmt.Sprintf("%.0f", a.leak))
	}
}

// Headline computes the §9.3 comparison deltas between schemes, averaged
// over the suite.
type Headline struct {
	BaseORAMPerfX, BaseORAMPowerW       float64
	DynPerfX, DynPowerW                 float64
	S300PerfX, S300PowerW               float64
	S500PerfX, S500PowerW               float64
	S1300PerfX, S1300PowerW             float64
	BaseDRAMPowerW                      float64
	DynVsORAMPerfPct, DynVsORAMPowerPct float64
	S300VsDynPowerPct                   float64
	S500VsDynPowerPct                   float64
	S1300VsDynPerfPct                   float64
	DynDummyFrac                        float64
}

// ComputeHeadline evaluates the §9.3 headline numbers.
func ComputeHeadline(s Scale) Headline {
	suite := workload.Suite()
	n := float64(len(suite))
	var h Headline
	cfgs := fig6Schemes(s)
	stride := 1 + len(cfgs)
	jobs := make([]simJob, 0, len(suite)*stride)
	for _, spec := range suite {
		jobs = append(jobs, simJob{spec, s.config(sim.BaseDRAM)})
		for _, cfg := range cfgs {
			jobs = append(jobs, simJob{spec, cfg})
		}
	}
	results := runAll(jobs)
	for si := range suite {
		base := results[si*stride]
		h.BaseDRAMPowerW += base.Power.Watts() / n
		or := results[si*stride+1]
		dy := results[si*stride+2]
		s3 := results[si*stride+3]
		s5 := results[si*stride+4]
		s13 := results[si*stride+5]
		h.BaseORAMPerfX += or.PerfOverhead(base) / n
		h.BaseORAMPowerW += or.Power.Watts() / n
		h.DynPerfX += dy.PerfOverhead(base) / n
		h.DynPowerW += dy.Power.Watts() / n
		h.S300PerfX += s3.PerfOverhead(base) / n
		h.S300PowerW += s3.Power.Watts() / n
		h.S500PerfX += s5.PerfOverhead(base) / n
		h.S500PowerW += s5.Power.Watts() / n
		h.S1300PerfX += s13.PerfOverhead(base) / n
		h.S1300PowerW += s13.Power.Watts() / n
		h.DynDummyFrac += dy.Mem.DummyFraction() / n
	}
	h.DynVsORAMPerfPct = (h.DynPerfX/h.BaseORAMPerfX - 1) * 100
	h.DynVsORAMPowerPct = (h.DynPowerW/h.BaseORAMPowerW - 1) * 100
	h.S300VsDynPowerPct = (h.S300PowerW/h.DynPowerW - 1) * 100
	h.S500VsDynPowerPct = (h.S500PowerW/h.DynPowerW - 1) * 100
	h.S1300VsDynPerfPct = (h.S1300PerfX/h.DynPerfX - 1) * 100
	return h
}

// HeadlineTable renders ComputeHeadline with the paper's reported values
// alongside.
func HeadlineTable(s Scale) *stats.Table { return headlineTable(ComputeHeadline(s)) }

// headlineTable renders h with the paper's reported values alongside.
func headlineTable(h Headline) *stats.Table {
	t := stats.NewTable("§9.3 headline comparison (suite averages)",
		"metric", "paper", "measured")
	t.AddRow("base_oram perf ×", "3.35", fmt.Sprintf("%.2f", h.BaseORAMPerfX))
	t.AddRow("dynamic_R4_E4 perf ×", "4.03", fmt.Sprintf("%.2f", h.DynPerfX))
	t.AddRow("static_300 perf ×", "3.80", fmt.Sprintf("%.2f", h.S300PerfX))
	t.AddRow("dynamic vs base_oram perf", "+20%", fmt.Sprintf("%+.0f%%", h.DynVsORAMPerfPct))
	t.AddRow("dynamic vs base_oram power", "+12%", fmt.Sprintf("%+.0f%%", h.DynVsORAMPowerPct))
	t.AddRow("static_300 vs dynamic power", "+47%", fmt.Sprintf("%+.0f%%", h.S300VsDynPowerPct))
	t.AddRow("static_500 vs dynamic power", "+34%", fmt.Sprintf("%+.0f%%", h.S500VsDynPowerPct))
	t.AddRow("static_1300 vs dynamic perf", "+30%", fmt.Sprintf("%+.0f%%", h.S1300VsDynPerfPct))
	t.AddRow("dynamic dummy-access fraction", "34%", fmt.Sprintf("%.0f%%", h.DynDummyFrac*100))
	t.AddRow("dynamic_R4_E4 ORAM-channel leakage", "32 bits",
		leakage.PaperBudget(4, 4).ORAMBits().String())
	t.AddRow("total with termination (§9.3)", "94 bits",
		fmt.Sprintf("%.0f bits", float64(leakage.PaperBudget(4, 4).TotalBits())))
	return t
}

// LeakageExamples renders the Example 2.1 / 6.1 arithmetic and the §9.5
// leakage budgets.
func LeakageExamples() *stats.Table {
	t := stats.NewTable("Examples 2.1 & 6.1: leakage accounting",
		"quantity", "value (bits)")
	t.AddRow("malicious P1, T=100 steps", fmt.Sprintf("%.0f", float64(leakage.MaliciousProgramBits(100))))
	t.AddRow("static rate (any)", fmt.Sprintf("%.0f", float64(leakage.StaticBits())))
	t.AddRow("dynamic R4 doubling (ORAM only)", fmt.Sprintf("%.0f", float64(leakage.PaperBudget(4, 2).ORAMBits())))
	t.AddRow("dynamic R4 doubling + termination", fmt.Sprintf("%.0f", float64(leakage.PaperBudget(4, 2).TotalBits())))
	t.AddRow("dynamic R4 E4 (ORAM only)", fmt.Sprintf("%.0f", float64(leakage.PaperBudget(4, 4).ORAMBits())))
	t.AddRow("dynamic R4 E16 (ORAM only)", fmt.Sprintf("%.0f", float64(leakage.PaperBudget(4, 16).ORAMBits())))
	t.AddRow("termination, discretized to 2^30", fmt.Sprintf("%.0f", float64(leakage.TerminationBits(core.PaperTmax, 30))))
	t.AddRow("unprotected base_oram at Tmax (approx)",
		fmt.Sprintf("%.3g", float64(leakage.UnprotectedBitsApprox(math.Exp2(62), pathoram.PaperAccessLatency))))
	return t
}
