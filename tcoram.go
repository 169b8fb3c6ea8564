// Package tcoram is the public facade of the library: it re-exports the
// pieces a downstream user composes — workload specs, simulation configs,
// the leakage calculator, the session protocol, and the experiment
// harness — without reaching into internal packages.
//
// The one-call entry points:
//
//	res, err := tcoram.Simulate(tcoram.Workloads()[0], tcoram.Config{Scheme: tcoram.DynamicORAM})
//	bits := tcoram.LeakageBudget(4, 4) // |R|=4, ×4 epochs → 32 bits
//
// See the examples/ directory for complete programs.
package tcoram

import (
	"tcoram/internal/adversary"
	"tcoram/internal/core"
	"tcoram/internal/crypt"
	"tcoram/internal/dram"
	"tcoram/internal/experiments"
	"tcoram/internal/leakage"
	"tcoram/internal/pathoram"
	"tcoram/internal/protocol"
	"tcoram/internal/sim"
	"tcoram/internal/stats"
	"tcoram/internal/workload"
)

// Re-exported simulation types. Config selects the memory-controller
// scheme, run length and leakage parameters; Result carries cycles, power,
// windows and the rate history.
type (
	// Config parameterizes one simulation run.
	Config = sim.Config
	// Result is the outcome of one run.
	Result = sim.Result
	// Scheme selects the memory controller under test.
	Scheme = sim.Scheme
	// Window is one fixed-instruction stats window.
	Window = sim.Window
	// WorkloadSpec describes a synthetic benchmark.
	WorkloadSpec = workload.Spec
	// Bits is a leakage quantity.
	Bits = leakage.Bits
	// RateChange is one epoch transition (the leaked information).
	RateChange = core.RateChange
	// EpochSchedule is a geometric epoch family.
	EpochSchedule = core.EpochSchedule
	// Table is a renderable result table (text or CSV).
	Table = stats.Table
)

// Scheme values (§9.1.6, plus §10's ORAM-free variant).
const (
	BaseDRAM    = sim.BaseDRAM
	BaseORAM    = sim.BaseORAM
	StaticORAM  = sim.StaticORAM
	DynamicORAM = sim.DynamicORAM
	// ShieldedDRAM applies the rate enforcer to commodity DRAM (§10):
	// zero timing leakage without ORAM's bandwidth cost, but addresses
	// remain visible.
	ShieldedDRAM = sim.ShieldedDRAM
)

// Simulate runs one workload under one configuration.
func Simulate(spec WorkloadSpec, cfg Config) (Result, error) {
	return sim.Run(spec, cfg)
}

// Workloads returns the eleven SPEC-analogue benchmarks of the evaluation
// (Fig 6), in the paper's plotting order.
func Workloads() []WorkloadSpec { return workload.Suite() }

// WorkloadByName returns a benchmark by name ("mcf", "h264ref", ...).
func WorkloadByName(name string) (WorkloadSpec, bool) { return workload.ByName(name) }

// WorkloadInput returns benchmark input variants used by Fig 2:
// perlbench {diffmail, splitmail} and astar {rivers, biglakes}.
func WorkloadInput(name, input string) (WorkloadSpec, bool) {
	switch name {
	case "perlbench":
		return workload.PerlbenchInput(input), true
	case "astar":
		return workload.AstarInput(input), true
	}
	return WorkloadSpec{}, false
}

// LeakageBudget returns the ORAM timing-channel bound of a dynamic scheme
// with |R| = numRates and the given epoch growth factor, under the paper's
// accounting constants (first epoch 2^30 cycles, Tmax = 2^62): |E|·lg|R|
// bits (§6.1).
func LeakageBudget(numRates int, epochGrowth uint64) Bits {
	return leakage.PaperBudget(numRates, epochGrowth).ORAMBits()
}

// TotalLeakage adds the early-termination channel (lg Tmax = 62 bits) to
// the ORAM-channel budget (§9.1.5).
func TotalLeakage(numRates int, epochGrowth uint64) Bits {
	return leakage.PaperBudget(numRates, epochGrowth).TotalBits()
}

// UnprotectedLeakage approximates the trace-count bound of an ORAM with no
// timing protection running for t cycles (Example 6.1) — astronomical for
// realistic t.
func UnprotectedLeakage(t float64) Bits {
	return leakage.UnprotectedBitsApprox(t, pathoram.PaperAccessLatency)
}

// PaperRates returns the §9.2 log-spaced rate set for the given |R|
// (for |R| = 4: {256, 1290, 6501, 32768}).
func PaperRates(n int) []uint64 { return core.PaperRates(n) }

// ORAMAccessLatency reports the per-access latency our DRAM model derives
// for the paper's 4 GB recursive Path ORAM, alongside the paper's 1488.
func ORAMAccessLatency() (modelCycles int64, paperCycles int64) {
	est := pathoram.EstimateAccessLatency(pathoram.PaperConfig(), dram.Default(), crypt.DefaultLatency())
	return est.CPUCycles, pathoram.PaperAccessLatency
}

// Protocol re-exports: the §5/§8 user–server session with run-once replay
// prevention.
type (
	// User is the remote user's protocol endpoint.
	User = protocol.User
	// SecureProcessor is the processor's protocol endpoint.
	SecureProcessor = protocol.Processor
	// Job is an encrypted, HMAC-bound work submission.
	Job = protocol.Job
	// LeakageParams are the server-proposed R/E parameters.
	LeakageParams = protocol.LeakageParams
)

// Adversary re-exports for the attack demos.
type (
	// RootProbe is the §3.2 root-bucket probing attack.
	RootProbe = adversary.Probe
	// MaliciousProgram is Figure 1 (a)'s bit-leaking program.
	MaliciousProgram = adversary.MaliciousProgram
)

// Experiments re-exports: regenerate the paper's tables and figures.
var (
	// ExperimentTable1 renders the Table 1 timing model.
	ExperimentTable1 = experiments.Table1
	// ExperimentTable2 renders the Table 2 energy model.
	ExperimentTable2 = experiments.Table2
	// ExperimentFig2 regenerates Figure 2.
	ExperimentFig2 = experiments.Fig2
	// ExperimentFig5 regenerates Figure 5.
	ExperimentFig5 = experiments.Fig5
	// ExperimentFig6 regenerates Figure 6.
	ExperimentFig6 = experiments.Fig6
	// ExperimentFig7 regenerates Figure 7.
	ExperimentFig7 = experiments.Fig7
	// ExperimentFig8a regenerates Figure 8a.
	ExperimentFig8a = experiments.Fig8a
	// ExperimentFig8b regenerates Figure 8b.
	ExperimentFig8b = experiments.Fig8b
	// ExperimentHeadline renders the §9.3 headline comparison.
	ExperimentHeadline = experiments.HeadlineTable
	// ExperimentLeakage renders the Example 2.1/6.1 arithmetic.
	ExperimentLeakage = experiments.LeakageExamples
)

// ExperimentScale selects run lengths for the experiment harness.
type ExperimentScale = experiments.Scale

// QuickScale is for smoke runs and benches; FullScale is what
// `cmd/experiments -scale full` runs.
var (
	QuickScale = experiments.Quick
	FullScale  = experiments.Full
)
