package core

import (
	"math/rand"
	"testing"
)

// refEnforcer is a deliberately naive reference implementation of the slot
// clock: it advances one slot at a time with no bulk arithmetic and no
// lazy epoch handling. The production Enforcer must agree with it exactly
// on slot starts, dummy counts and counters for any request pattern.
type refEnforcer struct {
	olat     uint64
	rates    []uint64
	rate     uint64
	sched    EpochSchedule
	lastEnd  uint64
	epoch    int
	epochEnd uint64
	epochLen uint64
	pred     Predictor
	disc     Discretizer
	counters Counters
	covered  uint64
	slots    []Slot
}

func newRefEnforcer(cfg EnforcerConfig) *refEnforcer {
	r := &refEnforcer{
		olat:  cfg.ORAMLatency,
		rates: cfg.Rates,
		rate:  cfg.InitialRate,
		sched: cfg.Schedule,
		pred:  cfg.Predictor,
		disc:  cfg.Discretizer,
	}
	if cfg.Static() {
		r.epochEnd = ^uint64(0)
		r.epochLen = ^uint64(0)
	} else {
		r.epochEnd = cfg.Schedule.Boundary(0)
		r.epochLen = cfg.Schedule.Length(0)
	}
	return r
}

func (r *refEnforcer) transition() {
	for r.lastEnd >= r.epochEnd {
		raw := r.pred.Predict(r.epochLen, r.counters)
		r.rate = r.disc.Apply(raw, r.rates)
		r.counters.Reset()
		r.epoch++
		r.epochLen = r.sched.Length(r.epoch)
		r.epochEnd = r.sched.Boundary(r.epoch)
	}
}

// advance processes dummy slots one at a time until the next slot start
// would be ≥ t.
func (r *refEnforcer) advance(t uint64) {
	for {
		r.transition()
		slot := r.lastEnd + r.rate
		if slot >= t {
			return
		}
		r.slots = append(r.slots, Slot{Start: slot, Kind: SlotDummy})
		r.lastEnd = slot + r.olat
	}
}

func (r *refEnforcer) fetch(now uint64) uint64 {
	r.advance(now)
	slot := r.lastEnd + r.rate
	from := now
	if r.covered > from {
		from = r.covered
	}
	if slot > from {
		r.counters.Waste += slot - from
	}
	r.covered = slot + r.olat
	r.counters.AccessCount++
	r.counters.ORAMCycles += r.olat
	r.slots = append(r.slots, Slot{Start: slot, Kind: SlotDemand})
	r.lastEnd = slot + r.olat
	return r.lastEnd
}

func TestEnforcerMatchesSlotBySlotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		cfg := EnforcerConfig{
			ORAMLatency: uint64(50 + rng.Intn(200)),
			Rates:       []uint64{32, 256, 2048},
			InitialRate: uint64(100 + rng.Intn(2000)),
			Schedule:    EpochSchedule{FirstLen: uint64(2000 + rng.Intn(8000)), Growth: uint64(2 + rng.Intn(3))},
			RecordSlots: true,
		}
		e, err := NewEnforcer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEnforcer(cfg)

		// Random request pattern with idle gaps long enough to force
		// bulk-dummy processing across epoch boundaries.
		var now uint64
		for i := 0; i < 60; i++ {
			now += uint64(rng.Intn(20000))
			d1 := e.Fetch(now, uint64(i))
			d2 := ref.fetch(now)
			if d1 != d2 {
				t.Fatalf("trial %d req %d: completion %d vs ref %d", trial, i, d1, d2)
			}
			if e.CountersNow() != ref.counters {
				t.Fatalf("trial %d req %d: counters %+v vs ref %+v", trial, i, e.CountersNow(), ref.counters)
			}
			now = d1
		}
		end := now + uint64(rng.Intn(100000))
		e.Sync(end)
		ref.advance(end)

		got, want := e.Slots(), ref.slots
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d slots vs ref %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d slot %d: %+v vs ref %+v", trial, i, got[i], want[i])
			}
		}
	}
}
