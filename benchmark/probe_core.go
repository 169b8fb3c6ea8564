package main

import (
	"time"

	"tcoram/internal/core"
)

// probeCore times the enforcer's per-slot decision: on the static grid
// paced-batched runs, and on a four-rate dynamic schedule whose learner
// picks a rate at every epoch boundary.
func probeCore(out map[string]float64, scale float64) error {
	iters := int(2_000_000 * scale)
	for _, v := range []struct {
		name string
		cfg  core.EnforcerConfig
	}{
		{"core.take_slot_ns", core.EnforcerConfig{ORAMLatency: 50, Rates: []uint64{pacedPeriodUS - 50}, InitialRate: pacedPeriodUS - 50}},
		{"core.take_slot_dynamic_ns", core.EnforcerConfig{ORAMLatency: 50, Rates: []uint64{200, 950, 1950, 3950}, InitialRate: 3950,
			Schedule: core.EpochSchedule{FirstLen: 1 << 16, Growth: 2}}},
	} {
		e, err := core.NewEnforcer(v.cfg)
		if err != nil {
			return err
		}
		var arrival uint64
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			arrival = e.TakeSlot(arrival, i&1 == 0)
		}
		out[v.name] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return nil
}
