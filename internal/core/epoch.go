package core

import (
	"fmt"
)

// EpochSchedule is a geometric epoch family (§6.2): epoch i+1 is Growth
// times as long as epoch i, starting from FirstLen cycles. Growth = 2 is
// the paper's "epoch doubling"; the evaluated configurations use growth
// factors 2, 4, 8 and 16 (dynamic_R4_E2 … dynamic_R4_E16).
type EpochSchedule struct {
	// FirstLen is the length of epoch 0 in cycles. The paper uses 2^30;
	// simulations scale this down, with their run lengths, so a scaled run
	// sees as many transitions; leakage accounting always uses the paper
	// constants.
	FirstLen uint64
	// Growth is the length multiplier between consecutive epochs (≥ 2 for
	// O(lg Tmax) leakage; 1 would mean fixed-size epochs).
	Growth uint64
}

// Validate reports whether the schedule is usable.
func (e EpochSchedule) Validate() error {
	if e.FirstLen == 0 {
		return fmt.Errorf("core: epoch FirstLen must be positive")
	}
	if e.Growth < 2 {
		return fmt.Errorf("core: epoch Growth must be ≥ 2, got %d", e.Growth)
	}
	return nil
}

// Boundary returns the cycle at which epoch i ends (exclusive), i.e. the
// cumulative length of epochs 0..i. Saturates at the maximum uint64 to
// behave as "never" once the geometric sum overflows.
func (e EpochSchedule) Boundary(i int) uint64 {
	var sum, length uint64 = 0, e.FirstLen
	for k := 0; k <= i; k++ {
		if sum+length < sum { // overflow
			return ^uint64(0)
		}
		sum += length
		if length > (^uint64(0))/e.Growth {
			length = ^uint64(0)
		} else {
			length *= e.Growth
		}
	}
	return sum
}

// Length returns the length of epoch i in cycles (saturating).
func (e EpochSchedule) Length(i int) uint64 {
	length := e.FirstLen
	for k := 0; k < i; k++ {
		if length > (^uint64(0))/e.Growth {
			return ^uint64(0)
		}
		length *= e.Growth
	}
	return length
}

// EpochsWithin returns |E|, the number of epochs expended within a runtime
// of tmax cycles, using the paper's accounting convention (Example 6.1):
// the count is the smallest n with FirstLen·Growthⁿ ≥ tmax, i.e.
// ⌈log_Growth(tmax/FirstLen)⌉. With FirstLen = 2^30 and tmax = 2^62 this
// gives 32 epochs for doubling, 16 for ×4 growth, 11 for ×8 and 8 for ×16 —
// exactly the |E| values behind the paper's leakage numbers (§6.1, §9.5).
// (A geometric-sum count would add one final partial epoch; the paper
// truncates it at Tmax.)
func (e EpochSchedule) EpochsWithin(tmax uint64) int {
	if tmax <= e.FirstLen {
		return 1
	}
	n := 0
	length := e.FirstLen
	for length < tmax {
		n++
		if length > (^uint64(0))/e.Growth {
			break
		}
		length *= e.Growth
	}
	return n
}

// PaperSchedule returns the leakage-accounting schedule of the paper:
// first epoch 2^30 cycles with the given growth factor.
func PaperSchedule(growth uint64) EpochSchedule {
	return EpochSchedule{FirstLen: 1 << 30, Growth: growth}
}

// PaperTmax is the maximum program runtime the paper fixes for leakage
// accounting: 2^62 cycles ≈ 150 years at 1 GHz (§5).
const PaperTmax = uint64(1) << 62
