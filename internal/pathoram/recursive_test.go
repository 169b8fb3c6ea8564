package pathoram

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"tcoram/internal/crypt"
	"tcoram/internal/dram"
)

func smallRecursiveConfig() RecursiveConfig {
	return RecursiveConfig{
		DataBlocks:       256,
		DataBlockBytes:   64,
		PosMapBlockBytes: 32,
		Z:                3,
		Recursion:        2,
	}
}

func newTestRecursive(t *testing.T, cfg RecursiveConfig, seed int64) *Recursive {
	t.Helper()
	r, err := NewRecursive(cfg, testKey(byte(seed)), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecursiveConfigValidate(t *testing.T) {
	good := smallRecursiveConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*RecursiveConfig){
		func(c *RecursiveConfig) { c.DataBlocks = 0 },
		func(c *RecursiveConfig) { c.DataBlockBytes = 0 },
		func(c *RecursiveConfig) { c.PosMapBlockBytes = 2 },
		func(c *RecursiveConfig) { c.Z = 0 },
		func(c *RecursiveConfig) { c.Recursion = -1 },
		func(c *RecursiveConfig) { c.Recursion = 9 },
	}
	for i, mutate := range bad {
		c := smallRecursiveConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestRecursionShrinksPosMaps(t *testing.T) {
	cfg := PaperConfig()
	geoms := cfg.Geometries()
	if len(geoms) != 1+cfg.Recursion {
		t.Fatalf("got %d geometries, want %d", len(geoms), 1+cfg.Recursion)
	}
	for i := 1; i < len(geoms); i++ {
		if geoms[i].Levels >= geoms[i-1].Levels {
			t.Fatalf("posmap level %d (%d tree levels) not smaller than level %d (%d)",
				i, geoms[i].Levels, i-1, geoms[i-1].Levels)
		}
	}
	// Final on-chip map must be small (the paper keeps the controller
	// under 200 KB of on-chip storage).
	entries := cfg.OnChipPosMapEntries()
	if entries*LabelBytes > 200<<10 {
		t.Fatalf("on-chip position map is %d bytes; want < 200 KB", entries*LabelBytes)
	}
}

func TestRecursiveReadYourWrites(t *testing.T) {
	r := newTestRecursive(t, smallRecursiveConfig(), 20)
	data := bytes.Repeat([]byte{0x3C}, 64)
	if _, err := r.Access(OpWrite, 100, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.Access(OpRead, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %x, want %x", got[:4], data[:4])
	}
}

func TestRecursiveFunctionalModel(t *testing.T) {
	r := newTestRecursive(t, smallRecursiveConfig(), 21)
	rng := rand.New(rand.NewSource(22))
	model := make(map[uint64][]byte)
	for i := 0; i < 500; i++ {
		addr := uint64(rng.Int63n(int64(r.Config().DataBlocks)))
		if rng.Intn(2) == 0 {
			data := make([]byte, 64)
			rng.Read(data)
			if _, err := r.Access(OpWrite, addr, data); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			model[addr] = data
		} else {
			got, err := r.Access(OpRead, addr, nil)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			want, ok := model[addr]
			if !ok {
				want = make([]byte, 64)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d read %x..., want %x...", i, addr, got[:4], want[:4])
			}
		}
	}
}

// TestRecursiveUpdateRMW pins the recursive read-modify-write contract the
// server's coalescing depends on: old contents visible inside fn, mutation
// durable, one all-levels access per Update.
func TestRecursiveUpdateRMW(t *testing.T) {
	r := newTestRecursive(t, smallRecursiveConfig(), 30)

	// Never-written block reads as zeroes through Update.
	var seen []byte
	if err := r.Update(3, func(data []byte) {
		seen = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, make([]byte, 64)) {
		t.Fatalf("fresh block not zero: %x", seen[:8])
	}

	want := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := r.Access(OpWrite, 9, want); err != nil {
		t.Fatal(err)
	}
	before := r.Accesses
	dataBefore := r.DataORAM().Accesses
	if err := r.Update(9, func(data []byte) {
		if !bytes.Equal(data, want) {
			t.Fatalf("Update saw %x..., want %x...", data[:4], want[:4])
		}
		data[0] = 0xCD
	}); err != nil {
		t.Fatal(err)
	}
	if r.Accesses != before+1 {
		t.Fatalf("Update cost %d stack accesses, want 1", r.Accesses-before)
	}
	if r.DataORAM().Accesses != dataBefore+1 {
		t.Fatalf("Update cost %d data-ORAM accesses, want 1", r.DataORAM().Accesses-dataBefore)
	}
	got, err := r.Access(OpRead, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	want[0] = 0xCD
	if !bytes.Equal(got, want) {
		t.Fatalf("after Update read %x..., want %x...", got[:4], want[:4])
	}

	if err := r.Update(r.Config().DataBlocks, nil); err == nil {
		t.Error("Update accepted out-of-range address")
	}
}

// TestRecursiveIntegrityAllLevels: with integrity enabled, tampering with
// untrusted storage at ANY level of the stack — including a position-map
// tree, whose contents are pure metadata — must fail the next access with
// ErrIntegrity. The tamper hits the shallowest level each tree keeps in the
// store, below its cached top: every path reads one bucket there, as every
// path read the root before the top was cached.
func TestRecursiveIntegrityAllLevels(t *testing.T) {
	for level := 0; level < 3; level++ {
		r := newTestRecursive(t, smallRecursiveConfig(), 31+int64(level))
		r.EnableIntegrity()
		data := bytes.Repeat([]byte{0x7E}, 64)
		for addr := uint64(0); addr < 32; addr++ {
			if _, err := r.Access(OpWrite, addr, data); err != nil {
				t.Fatal(err)
			}
		}
		// Flip one byte of every bucket of the chosen tree's first stored
		// level.
		o := r.orams[level]
		for idx := uint64(1)<<o.topLevels - 1; idx < uint64(2)<<o.topLevels-1; idx++ {
			o.Storage().BucketSlice(idx)[0] ^= 0xFF
		}
		var err error
		for addr := uint64(0); addr < 32 && err == nil; addr++ {
			_, err = r.Access(OpRead, addr, nil)
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("level %d tamper: got %v, want ErrIntegrity", level, err)
		}
	}
}

func TestRecursiveEnableIntegrityMustPrecedeAccesses(t *testing.T) {
	r := newTestRecursive(t, smallRecursiveConfig(), 35)
	if _, err := r.Access(OpWrite, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EnableIntegrity after accesses did not panic")
		}
	}()
	r.EnableIntegrity()
}

// TestRecursiveStashOccupancyAcrossLevels: the stack-level reporting sums
// the per-level stashes, and LevelStashPeaks exposes one entry per level
// (data ORAM first).
func TestRecursiveStashOccupancyAcrossLevels(t *testing.T) {
	cfg := smallRecursiveConfig()
	r := newTestRecursive(t, cfg, 36)
	data := make([]byte, 64)
	for i := 0; i < 300; i++ {
		if _, err := r.Access(OpWrite, uint64(i%int(cfg.DataBlocks)), data); err != nil {
			t.Fatal(err)
		}
	}
	peaks := r.LevelStashPeaks(nil)
	if len(peaks) != 1+cfg.Recursion {
		t.Fatalf("LevelStashPeaks has %d entries, want %d", len(peaks), 1+cfg.Recursion)
	}
	sum := 0
	for i, p := range peaks {
		if p == 0 {
			t.Errorf("level %d peak stash is 0 after 300 accesses", i)
		}
		sum += p
	}
	cur, peak := r.StashOccupancy()
	if peak != sum {
		t.Errorf("StashOccupancy peak = %d, want sum of level peaks %d", peak, sum)
	}
	if cur < 0 || cur > peak {
		t.Errorf("current occupancy %d outside [0, %d]", cur, peak)
	}
	if r.Blocks() != cfg.DataBlocks || r.BlockBytes() != cfg.DataBlockBytes {
		t.Errorf("geometry surface: Blocks=%d BlockBytes=%d, want %d/%d",
			r.Blocks(), r.BlockBytes(), cfg.DataBlocks, cfg.DataBlockBytes)
	}
}

func TestRecursiveRejectsOutOfRange(t *testing.T) {
	r := newTestRecursive(t, smallRecursiveConfig(), 23)
	if _, err := r.Access(OpRead, r.Config().DataBlocks, nil); err == nil {
		t.Fatal("Access accepted out-of-range block")
	}
	if _, err := r.Access(OpWrite, 0, make([]byte, 7)); err == nil {
		t.Fatal("Access accepted short write")
	}
}

func TestRecursiveDummyTouchesAllLevels(t *testing.T) {
	r := newTestRecursive(t, smallRecursiveConfig(), 24)
	before := make([]uint64, len(r.orams))
	for i, o := range r.orams {
		before[i] = o.DummyAccesses
	}
	if err := r.DummyAccess(); err != nil {
		t.Fatal(err)
	}
	for i, o := range r.orams {
		if o.DummyAccesses != before[i]+1 {
			t.Fatalf("level %d: dummy accesses %d, want %d", i, o.DummyAccesses, before[i]+1)
		}
	}
	if r.DummyAccesses != 1 {
		t.Fatalf("stack DummyAccesses = %d, want 1", r.DummyAccesses)
	}
}

func TestPaperConfigMatchesReportedMovement(t *testing.T) {
	// §9.1.2: each access transfers ≈24.2 KB (12.1 KB per direction).
	cfg := PaperConfig()
	oneWay, roundTrip := cfg.AccessBytes()
	if roundTrip != 2*oneWay {
		t.Fatalf("roundTrip %d != 2×oneWay %d", roundTrip, oneWay)
	}
	lo, hi := PaperAccessBytes*9/10, PaperAccessBytes*11/10
	if roundTrip < lo || roundTrip > hi {
		t.Fatalf("round-trip bytes = %d, want within 10%% of paper's %d", roundTrip, PaperAccessBytes)
	}
}

func TestEstimateAccessLatencyNearPaper(t *testing.T) {
	// Our native DRAM model should land near the paper's DRAMSim2-derived
	// 1488 cycles; the experiments still use PaperAccessLatency itself, so
	// their results compare point for point with the paper's.
	est := EstimateAccessLatency(PaperConfig(), dram.Default(), crypt.DefaultLatency())
	if est.CPUCycles < PaperAccessLatency*80/100 || est.CPUCycles > PaperAccessLatency*120/100 {
		t.Fatalf("estimated access latency %d cycles; want within 20%% of %d", est.CPUCycles, PaperAccessLatency)
	}
	if est.BytesMoved < PaperAccessBytes*9/10 || est.BytesMoved > PaperAccessBytes*11/10 {
		t.Fatalf("estimated bytes moved %d; want within 10%% of %d", est.BytesMoved, PaperAccessBytes)
	}
	if est.Bursts <= 0 || est.DRAMCycles <= 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	a := EstimateAccessLatency(PaperConfig(), dram.Default(), crypt.DefaultLatency())
	b := EstimateAccessLatency(PaperConfig(), dram.Default(), crypt.DefaultLatency())
	if a != b {
		t.Fatalf("latency estimate not deterministic: %+v vs %+v", a, b)
	}
}

func TestTreeAddressMapLayoutDisjoint(t *testing.T) {
	cfg := smallRecursiveConfig()
	m := NewTreeAddressMap(cfg)
	geoms := cfg.Geometries()
	for i := 1; i < len(geoms); i++ {
		endPrev := m.BucketAddr(i-1, geoms[i-1].Buckets()-1) + int64(geoms[i-1].BucketCipherBytes())
		if m.BucketAddr(i, 0) < endPrev {
			t.Fatalf("tree %d overlaps tree %d", i, i-1)
		}
	}
	if m.TotalBytes() <= 0 {
		t.Fatal("TotalBytes not positive")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String() mismatch")
	}
}

var _ = crypt.KeySize // keep import if test set shrinks
