// Package workload generates deterministic synthetic instruction streams
// that stand in for the paper's SPEC-int benchmarks: the repo runs no SPEC
// binaries. Each benchmark is a phase program: per-phase
// instruction mix, hot (cache-resident) and cold (LLC-missing) working
// sets, access burstiness, and phase boundaries. The generators are
// calibrated so the observable properties the paper's evaluation depends on
// hold: base_dram IPC in 0.15–0.36 (§9.1.6), base_oram average slowdown
// ≈3.35× (§9.3), h264ref's compute→memory phase change (§9.4), and
// perlbench's ~80× input-dependent rate gap (Fig 2).
package workload

import (
	"fmt"
	"sort"

	"tcoram/internal/cache"
	"tcoram/internal/trace"
)

// Address-space layout: code at 0, hot data after it, cold data far above.
// Keeping the regions disjoint makes cache behaviour interpretable.
const (
	codeBase = uint64(0)
	hotBase  = uint64(1) << 24 // 16 MB
	coldBase = uint64(1) << 32 // 4 GB
)

// Mix gives per-instruction probabilities of each class. Probabilities are
// expressed in 1/65536ths for a fast integer comparison in the hot loop;
// the remainder is IntALU.
type Mix struct {
	Load, Store          float64
	Branch               float64
	IntMult, IntDiv      float64
	FPALU, FPMult, FPDiv float64
}

// Phase is one program phase.
type Phase struct {
	// Name labels the phase in diagnostics.
	Name string
	// Weight is the relative share of total instructions this phase gets.
	Weight float64
	// Mix is the instruction mix.
	Mix Mix
	// HotBytes is the cache-resident working set touched by non-cold
	// memory operations.
	HotBytes uint64
	// ColdBytes is the large (≫ LLC) region whose accesses miss.
	ColdBytes uint64
	// ColdProb is the probability a memory op targets the cold region —
	// the direct knob for LLC MPKI.
	ColdProb float64
	// ColdStride, when nonzero, streams through the cold region with the
	// given stride in bytes (libquantum-style); zero means uniform random
	// (mcf/omnetpp-style pointer chasing).
	ColdStride uint64
	// BurstLen clusters cold accesses: after one cold access, the next
	// BurstLen-1 memory ops are also cold (gobmk-style erratic bursts).
	BurstLen int
	// L1Frac is the probability a hot access stays in the L1-resident
	// kernel (reuse locality). Zero means the default 0.875; memory-bound
	// pointer chasers use lower values, compute kernels higher.
	L1Frac float64
}

// Spec describes one benchmark+input pair.
type Spec struct {
	Name      string
	Input     string
	CodeBytes uint64 // synthetic code footprint (I-cache pressure)
	Phases    []Phase
}

// Validate reports whether the spec is generable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", s.Name)
	}
	total := 0.0
	for i, p := range s.Phases {
		if p.Weight <= 0 {
			return fmt.Errorf("workload %s: phase %d has non-positive weight", s.Name, i)
		}
		if p.ColdProb < 0 || p.ColdProb > 1 {
			return fmt.Errorf("workload %s: phase %d ColdProb %v out of [0,1]", s.Name, i, p.ColdProb)
		}
		m := p.Mix
		sum := m.Load + m.Store + m.Branch + m.IntMult + m.IntDiv + m.FPALU + m.FPMult + m.FPDiv
		if sum > 1 {
			return fmt.Errorf("workload %s: phase %d mix sums to %v > 1", s.Name, i, sum)
		}
		total += p.Weight
	}
	if total <= 0 {
		return fmt.Errorf("workload %s: zero total weight", s.Name)
	}
	return nil
}

// ID returns "name/input", the identifier used by the experiment harness.
func (s Spec) ID() string {
	if s.Input == "" {
		return s.Name
	}
	return s.Name + "/" + s.Input
}

// l1HotBytes is the size of the L1-resident kernel inside each hot working
// set: real programs have strong reuse locality, so most hot accesses hit
// L1D. Without this skew the hot set would thrash L1D through L2, inflating
// both CPI and energy far beyond the paper's base_dram band.
const l1HotBytes = 12 << 10

// defaultL1Frac is the default probability that a hot access stays in the
// L1-resident kernel.
const defaultL1Frac = 0.875

// phaseGen is the compiled, fast-path form of a Phase.
type phaseGen struct {
	endInstr   uint64 // stream position where this phase ends
	thrLoad    uint32 // cumulative thresholds in 1/2^32 units
	thrStore   uint32
	thrBranch  uint32
	thrIntMult uint32
	thrIntDiv  uint32
	thrFPALU   uint32
	thrFPMult  uint32
	thrFPDiv   uint32
	hotLines   uint64
	l1Lines    uint64
	l1Prob     uint8 // probability in 1/256ths that a hot access is L1-kernel
	coldLines  uint64
	coldProb   uint32 // per mem-op burst-entry threshold in 1/2^32 units
	strideLn   uint64 // stride in lines; 0 = random
	burstLen   int
}

// Generator emits the instruction stream for a Spec. It implements
// trace.Stream and is infinite: phase weights are scaled to TotalInstrs,
// and after the last phase the final phase repeats (so runs may be cut at
// any length without the stream ending early).
type Generator struct {
	spec   Spec
	phases []phaseGen
	cur    int
	pos    uint64
	rng    uint64
	cursor uint64 // streaming cold cursor (lines)
	burst  int    // remaining cold accesses in the current burst
}

// NewGenerator compiles spec for a nominal run of totalInstrs instructions.
// The phase schedule positions scale with totalInstrs; the stream itself
// never ends.
func NewGenerator(spec Spec, totalInstrs uint64, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if totalInstrs == 0 {
		return nil, fmt.Errorf("workload %s: totalInstrs must be positive", spec.Name)
	}
	var weightSum float64
	for _, p := range spec.Phases {
		weightSum += p.Weight
	}
	g := &Generator{spec: spec, rng: seed ^ 0xD1B54A32D192ED03}
	if g.rng == 0 {
		g.rng = 1
	}
	var acc float64
	for _, p := range spec.Phases {
		acc += p.Weight
		pg := compilePhase(p)
		pg.endInstr = uint64(acc / weightSum * float64(totalInstrs))
		g.phases = append(g.phases, pg)
	}
	// Guarantee the schedule is monotone even with tiny weights.
	sort.Slice(g.phases, func(i, j int) bool { return g.phases[i].endInstr < g.phases[j].endInstr })
	return g, nil
}

func toThreshold(p float64) uint32 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint32(0)
	}
	return uint32(p * float64(1<<32))
}

func compilePhase(p Phase) phaseGen {
	m := p.Mix
	cum := m.Load
	pg := phaseGen{thrLoad: toThreshold(cum)}
	cum += m.Store
	pg.thrStore = toThreshold(cum)
	cum += m.Branch
	pg.thrBranch = toThreshold(cum)
	cum += m.IntMult
	pg.thrIntMult = toThreshold(cum)
	cum += m.IntDiv
	pg.thrIntDiv = toThreshold(cum)
	cum += m.FPALU
	pg.thrFPALU = toThreshold(cum)
	cum += m.FPMult
	pg.thrFPMult = toThreshold(cum)
	cum += m.FPDiv
	pg.thrFPDiv = toThreshold(cum)

	pg.hotLines = p.HotBytes / cache.LineBytes
	if pg.hotLines == 0 {
		pg.hotLines = 1
	}
	pg.l1Lines = pg.hotLines
	if max := uint64(l1HotBytes / cache.LineBytes); pg.l1Lines > max {
		pg.l1Lines = max
	}
	l1Frac := p.L1Frac
	if l1Frac <= 0 {
		l1Frac = defaultL1Frac
	}
	if l1Frac > 1 {
		l1Frac = 1
	}
	pg.l1Prob = uint8(l1Frac * 255)
	pg.coldLines = p.ColdBytes / cache.LineBytes
	if pg.coldLines == 0 {
		pg.coldLines = 1
	}
	// Bursts cluster cold accesses without changing their overall share:
	// a burst of length k is entered with probability ColdProb/k.
	pg.burstLen = p.BurstLen
	if pg.burstLen < 1 {
		pg.burstLen = 1
	}
	pg.coldProb = toThreshold(p.ColdProb / float64(pg.burstLen))
	pg.strideLn = p.ColdStride / cache.LineBytes
	return pg
}

// Spec returns the generating spec.
func (g *Generator) Spec() Spec { return g.spec }

// CodeBytes returns the code footprint for the core's fetch model.
func (g *Generator) CodeBytes() uint64 {
	if g.spec.CodeBytes == 0 {
		return 16 << 10
	}
	return g.spec.CodeBytes
}

// PhaseAt returns the index of the phase active at instruction position pos
// (diagnostic hook for Fig 7 analysis).
func (g *Generator) PhaseAt(pos uint64) int {
	for i := range g.phases {
		if pos < g.phases[i].endInstr {
			return i
		}
	}
	return len(g.phases) - 1
}

// nextRand is splitmix64.
func (g *Generator) nextRand() uint64 {
	g.rng += 0x9E3779B97F4A7C15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next implements trace.Stream. The stream is infinite.
func (g *Generator) Next() (trace.Instr, bool) {
	for g.cur < len(g.phases)-1 && g.pos >= g.phases[g.cur].endInstr {
		g.cur++
		g.burst = 0
	}
	p := &g.phases[g.cur]
	g.pos++

	r := g.nextRand()
	sel := uint32(r)
	var kind trace.Kind
	switch {
	case sel < p.thrLoad:
		kind = trace.Load
	case sel < p.thrStore:
		kind = trace.Store
	case sel < p.thrBranch:
		kind = trace.Branch
	case sel < p.thrIntMult:
		kind = trace.IntMult
	case sel < p.thrIntDiv:
		kind = trace.IntDiv
	case sel < p.thrFPALU:
		kind = trace.FPALU
	case sel < p.thrFPMult:
		kind = trace.FPMult
	case sel < p.thrFPDiv:
		kind = trace.FPDiv
	default:
		kind = trace.IntALU
	}
	if kind != trace.Load && kind != trace.Store {
		return trace.Instr{Kind: kind}, true
	}

	// Memory op: pick hot or cold region. Bit budget of r2: low 32 bits
	// select cold-vs-hot, bits 32–39 select the L1-kernel skew, and the
	// top 24 bits index a line (regions are ≤ 1 GB).
	r2 := g.nextRand()
	cold := g.burst > 0 || uint32(r2) < p.coldProb
	var addr uint64
	if cold {
		if g.burst > 0 {
			g.burst--
		} else if p.burstLen > 1 {
			g.burst = p.burstLen - 1
		}
		var line uint64
		if p.strideLn > 0 {
			g.cursor += p.strideLn
			line = g.cursor % p.coldLines
		} else {
			line = (r2 >> 40) % p.coldLines
		}
		addr = coldBase + line*cache.LineBytes
	} else {
		span := p.hotLines
		if uint8(r2>>32) < p.l1Prob {
			span = p.l1Lines
		}
		line := (r2 >> 40) % span
		addr = hotBase + line*cache.LineBytes
	}
	return trace.Instr{Kind: kind, Addr: addr}, true
}
