package core

// Counters are the three performance counters the paper adds at the ORAM
// controller (§7.1.1), reset at every epoch transition:
//
//   - AccessCount: real (non-dummy) ORAM requests served this epoch;
//   - ORAMCycles: cycles each real request was in service, summed;
//   - Waste: cycles ORAM had real work queued but was waiting for the next
//     slot or behind a dummy access — the cycles lost to the current rate.
type Counters struct {
	AccessCount uint64
	ORAMCycles  uint64
	Waste       uint64
}

// Reset zeroes the counters (epoch transition).
func (c *Counters) Reset() { *c = Counters{} }

// PredictRaw computes the learner's averaging statistic (Equation 1):
//
//	NewIntRaw = (EpochCycles − Waste − ORAMCycles) / AccessCount
//
// i.e. the average compute gap the program offered between ORAM requests —
// the offered load rate. A zero AccessCount or a negative numerator (Waste
// can exceed the epoch length when many requests queue simultaneously)
// saturates: no accesses → predict the slowest possible interval;
// oversubscribed → predict zero (fastest).
func PredictRaw(epochCycles uint64, c Counters) uint64 {
	spent := c.Waste + c.ORAMCycles
	if spent >= epochCycles {
		return 0
	}
	free := epochCycles - spent
	if c.AccessCount == 0 {
		return free
	}
	return free / c.AccessCount
}

// PredictShift is the hardware implementation (Algorithm 1): instead of a
// divider, AccessCount is rounded up to the next power of two — strictly up,
// even when already a power of two — and the division becomes that many
// 1-bit right shifts. This may underset the rate by up to 2× (§7.2), a
// deliberate bias that compensates for bursty arrival processes (§7.3).
func PredictShift(epochCycles uint64, c Counters) uint64 {
	spent := c.Waste + c.ORAMCycles
	if spent >= epochCycles {
		return 0
	}
	raw := epochCycles - spent
	count := c.AccessCount
	for count > 0 {
		raw >>= 1
		count >>= 1
	}
	return raw
}

// Predictor selects a rate-prediction strategy. The enforcer uses
// ShiftPredictor by default (the paper's hardware); ExactPredictor is the
// ablation comparator (BenchmarkAblationPredictor).
type Predictor uint8

const (
	// ShiftPredictor is Algorithm 1 (shift-register divider).
	ShiftPredictor Predictor = iota
	// ExactPredictor uses a true divider (Equation 1 verbatim).
	ExactPredictor
)

func (p Predictor) String() string {
	if p == ExactPredictor {
		return "exact"
	}
	return "shift"
}

// Predict applies the selected strategy.
func (p Predictor) Predict(epochCycles uint64, c Counters) uint64 {
	if p == ExactPredictor {
		return PredictRaw(epochCycles, c)
	}
	return PredictShift(epochCycles, c)
}

// Discretizer selects how a raw prediction maps onto R.
type Discretizer uint8

const (
	// LinearDiscretizer is the paper's argmin over absolute distance.
	LinearDiscretizer Discretizer = iota
	// LogDiscretizer measures distance in log space (ablation ✦).
	LogDiscretizer
)

func (d Discretizer) String() string {
	if d == LogDiscretizer {
		return "log"
	}
	return "linear"
}

// Apply maps raw onto the rate set.
func (d Discretizer) Apply(raw uint64, rates []uint64) uint64 {
	if d == LogDiscretizer {
		return DiscretizeLog(raw, rates)
	}
	return Discretize(raw, rates)
}
