package pathoram

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func smallBatchedConfig() BatchedConfig {
	return BatchedConfig{
		RecursiveConfig: RecursiveConfig{
			DataBlocks:       48, // small tree -> frequent leaf collisions
			DataBlockBytes:   32,
			PosMapBlockBytes: 32,
			Z:                3,
			Recursion:        0,
		},
		BatchK:     4,
		EvictEvery: 4,
	}
}

func newTestBatched(t *testing.T, cfg BatchedConfig, seed int64) *Batched {
	t.Helper()
	b, err := NewBatched(cfg, testKey(byte(seed)), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchedConfigValidate(t *testing.T) {
	good := smallBatchedConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*BatchedConfig){
		func(c *BatchedConfig) { c.DataBlocks = 0 },
		func(c *BatchedConfig) { c.BatchK = -1 },
		func(c *BatchedConfig) { c.BatchK = 65 },
		func(c *BatchedConfig) { c.EvictEvery = -1 },
		func(c *BatchedConfig) { c.EvictEvery = 4097 },
		func(c *BatchedConfig) { c.EvictPaths = -1 },
		func(c *BatchedConfig) { c.BatchK = 8; c.StashHighWater = 4 },
	}
	for i, mutate := range bad {
		c := smallBatchedConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	// A bucket's tombstones are one byte, so the deferred policy stops at
	// Z = 8; the classic policy keeps none and takes any Z.
	wide := smallBatchedConfig()
	wide.Z = 9
	if err := wide.Validate(); err == nil || !strings.Contains(err.Error(), "one-byte mask") {
		t.Errorf("Validate of a deferred stack with Z = 9: got %v, want a refusal naming the one-byte mask", err)
	}
	wide.Z = 8
	if err := wide.Validate(); err != nil {
		t.Errorf("Validate refused a deferred stack with Z = 8: %v", err)
	}
	classic := StackConfig{RecursiveConfig: wide.RecursiveConfig}
	classic.Z = 9
	if err := classic.Validate(); err != nil {
		t.Errorf("Validate refused a classic stack with Z = 9: %v", err)
	}
	// A block header keeps 24 bits of leaf, so a stored tree stops at 2^24
	// leaves: 6·2^24 − 3 blocks fill a 25-level tree at Z = 3, and one more
	// needs 26 levels. Validate builds no tree.
	for _, c := range []struct {
		blocks uint64
		ok     bool
	}{{6<<24 - 3, true}, {6<<24 - 2, false}, {6<<24 + 1, false}} {
		big := StackConfig{RecursiveConfig: RecursiveConfig{DataBlocks: c.blocks, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3}}
		if err := big.Validate(); c.ok && err != nil {
			t.Errorf("Validate refused %d blocks: %v", c.blocks, err)
		} else if !c.ok && (err == nil || !strings.Contains(err.Error(), "24-bit leaf field")) {
			t.Errorf("Validate of %d blocks: got %v, want a refusal naming the header's 24-bit leaf field", c.blocks, err)
		}
	}
	if err := (StackConfig{RecursiveConfig: PaperConfig()}).Validate(); err != nil {
		t.Errorf("Validate refused the paper's configuration: %v", err)
	}
}

// TestBatchedReadYourWrites drives a long mixed workload — batches of
// varying fill, single Updates, dummy slots — against a reference map on a
// deliberately tiny tree (many leaf collisions, so stale tree copies and
// fresh stash copies constantly share paths) and checks every read plus the
// structural invariant along the way. This is the test that would catch a
// resurrected stale copy.
func TestBatchedReadYourWrites(t *testing.T) {
	cfg := smallBatchedConfig()
	b := newTestBatched(t, cfg, 7)
	rng := rand.New(rand.NewSource(99))
	ref := make(map[uint64][]byte)

	checkRead := func(addr uint64) BatchOp {
		want := ref[addr]
		return BatchOp{Addr: addr, Fn: func(data []byte) {
			if want == nil {
				want = make([]byte, cfg.DataBlockBytes)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("block %d: read %x, want %x", addr, data[:4], want[:4])
			}
		}}
	}
	write := func(addr uint64) BatchOp {
		payload := make([]byte, cfg.DataBlockBytes)
		rng.Read(payload)
		ref[addr] = payload
		return BatchOp{Addr: addr, Fn: func(data []byte) { copy(data, payload) }}
	}

	for slot := 0; slot < 600; slot++ {
		switch slot % 7 {
		case 3: // dummy slot
			if err := b.DummyAccess(); err != nil {
				t.Fatal(err)
			}
		case 5: // single-op Update path
			addr := uint64(rng.Intn(int(cfg.DataBlocks)))
			op := write(addr)
			if err := b.Update(op.Addr, op.Fn); err != nil {
				t.Fatal(err)
			}
		default: // batch with a random fill level, mixed reads and writes
			n := 1 + rng.Intn(cfg.BatchK)
			ops := make([]BatchOp, 0, n)
			for i := 0; i < n; i++ {
				addr := uint64(rng.Intn(int(cfg.DataBlocks)))
				if rng.Intn(2) == 0 {
					ops = append(ops, write(addr))
				} else {
					ops = append(ops, checkRead(addr))
				}
			}
			if err := b.AccessBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		if slot%37 == 0 {
			if err := b.CheckInvariant(); err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
		}
	}
	// Final sweep: every written block reads back.
	for addr := uint64(0); addr < cfg.DataBlocks; addr++ {
		if err := b.AccessBatch([]BatchOp{checkRead(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if b.ForcedEvictions() != 0 {
		t.Errorf("unexpected forced evictions: %d", b.ForcedEvictions())
	}
}

// TestBatchedRecursiveIntegrity checks the batched backend composes with
// position-map recursion and Merkle integrity: same RMW semantics, every
// level verified on read.
func TestBatchedRecursiveIntegrity(t *testing.T) {
	cfg := smallBatchedConfig()
	cfg.DataBlocks = 256
	cfg.DataBlockBytes = 64
	cfg.Recursion = 2
	b := newTestBatched(t, cfg, 11)
	b.EnableIntegrity()
	rng := rand.New(rand.NewSource(5))
	ref := make(map[uint64][]byte)

	for slot := 0; slot < 200; slot++ {
		n := 1 + rng.Intn(cfg.BatchK)
		ops := make([]BatchOp, 0, n)
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(int(cfg.DataBlocks)))
			if prev, ok := ref[addr]; ok && rng.Intn(2) == 0 {
				want := append([]byte(nil), prev...)
				ops = append(ops, BatchOp{Addr: addr, Fn: func(data []byte) {
					if !bytes.Equal(data, want) {
						t.Fatalf("block %d: read-back mismatch", addr)
					}
				}})
			} else {
				payload := make([]byte, cfg.DataBlockBytes)
				rng.Read(payload)
				ref[addr] = payload
				ops = append(ops, BatchOp{Addr: addr, Fn: func(data []byte) { copy(data, payload) }})
			}
		}
		if err := b.AccessBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	// Tampering with any level's storage must fail the next batch.
	tampered := newTestBatched(t, cfg, 11)
	tampered.EnableIntegrity()
	if err := tampered.AccessBatch([]BatchOp{{Addr: 1, Fn: func(d []byte) { d[0] = 1 }}}); err != nil {
		t.Fatal(err)
	}
	buf := tampered.rec.orams[0].Storage().(*ByteStorage).Bytes()
	buf[len(buf)/2] ^= 0xFF
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = tampered.DummyAccess()
	}
	if err == nil {
		t.Fatal("tampered storage never failed integrity verification")
	}
}

// TestBatchedDuplicateAddrs checks that duplicate addresses within one
// batch behave like sequential accesses: the second op observes the first
// op's write.
func TestBatchedDuplicateAddrs(t *testing.T) {
	cfg := smallBatchedConfig()
	b := newTestBatched(t, cfg, 3)
	payload := bytes.Repeat([]byte{0xAB}, cfg.DataBlockBytes)
	saw := false
	err := b.AccessBatch([]BatchOp{
		{Addr: 9, Fn: func(d []byte) { copy(d, payload) }},
		{Addr: 9, Fn: func(d []byte) {
			saw = true
			if !bytes.Equal(d, payload) {
				t.Errorf("second op read %x, want %x", d[:4], payload[:4])
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("second op never ran")
	}
	if err := b.AccessBatch(make([]BatchOp, cfg.BatchK+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchedTraceDataIndependence is the core security property of the
// batched schedule: the per-slot storage-access signature (bucket reads,
// writes, bytes moved, eviction cadence) is byte-identical whether a slot
// carries zero, one, or a full batch of real requests — dummies pad every
// slot to exactly BatchK paths and evictions fire on slot count alone.
func TestBatchedTraceDataIndependence(t *testing.T) {
	for _, recursion := range []int{0, 2} {
		cfg := smallBatchedConfig()
		cfg.DataBlocks = 256
		cfg.DataBlockBytes = 64
		cfg.Recursion = recursion
		const slots = 33 // covers several eviction periods plus a partial one

		traces := make(map[string][]byte)
		for name, fill := range map[string]int{"depth0": 0, "depth1": 1, "depthK": cfg.BatchK} {
			b := newTestBatched(t, cfg, 21)
			b.TraceSlots = true
			next := uint64(0)
			for s := 0; s < slots; s++ {
				ops := make([]BatchOp, 0, fill)
				for i := 0; i < fill; i++ {
					ops = append(ops, BatchOp{Addr: next % cfg.DataBlocks, Fn: func([]byte) {}})
					next++
				}
				if err := b.AccessBatch(ops); err != nil {
					t.Fatal(err)
				}
			}
			if b.ForcedEvictions() != 0 {
				t.Fatalf("recursion=%d %s: forced eviction perturbed the schedule", recursion, name)
			}
			raw, err := json.Marshal(b.SlotTrace)
			if err != nil {
				t.Fatal(err)
			}
			traces[name] = raw
		}
		for name, raw := range traces {
			if !bytes.Equal(raw, traces["depth0"]) {
				t.Errorf("recursion=%d: slot trace for %s differs from the idle trace:\n%s\nvs\n%s",
					recursion, name, raw, traces["depth0"])
			}
		}
	}
}

// TestBatchedStashHighWater overloads the backend — BatchK distinct blocks
// every slot with a long eviction period and a low high-water mark — and
// checks the guard forces early passes, the documented occupancy bound
// holds, and correctness survives the overload.
func TestBatchedStashHighWater(t *testing.T) {
	cfg := smallBatchedConfig()
	cfg.DataBlocks = 512
	cfg.BatchK = 4
	cfg.EvictEvery = 16 // worst case: k×K = 64 blocks between scheduled passes
	cfg.StashHighWater = 24
	b := newTestBatched(t, cfg, 13)
	rng := rand.New(rand.NewSource(17))
	ref := make(map[uint64][]byte)

	for slot := 0; slot < 256; slot++ {
		ops := make([]BatchOp, 0, cfg.BatchK)
		for i := 0; i < cfg.BatchK; i++ {
			addr := uint64(rng.Intn(int(cfg.DataBlocks)))
			payload := make([]byte, cfg.DataBlockBytes)
			rng.Read(payload)
			ref[addr] = payload
			ops = append(ops, BatchOp{Addr: addr, Fn: func(d []byte) { copy(d, payload) }})
		}
		if err := b.AccessBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	if b.ForcedEvictions() == 0 {
		t.Fatal("high-water guard never fired under k distinct blocks per slot")
	}
	peaks := b.LevelStashPeaks(nil)
	if bound := b.StashBound(); peaks[0] > bound {
		t.Fatalf("data-level stash peak %d exceeds documented bound %d", peaks[0], bound)
	}
	for addr, want := range ref {
		err := b.AccessBatch([]BatchOp{{Addr: addr, Fn: func(d []byte) {
			if !bytes.Equal(d, want) {
				t.Fatalf("block %d corrupted under overload", addr)
			}
		}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedEvictionReverseLex checks the eviction-path order is the
// bit-reversed counter sequence: successive paths diverge at the root, and
// the order visits every leaf exactly once per Leaves() passes.
func TestBatchedEvictionReverseLex(t *testing.T) {
	cfg := smallBatchedConfig()
	b := newTestBatched(t, cfg, 1)
	leaves := b.data.geom.Leaves()
	seen := make(map[uint64]bool)
	var order []uint64
	for i := uint64(0); i < leaves; i++ {
		leaf := b.nextEvictLeaf()
		if leaf >= leaves {
			t.Fatalf("eviction leaf %d out of range (%d leaves)", leaf, leaves)
		}
		if seen[leaf] {
			t.Fatalf("leaf %d revisited before a full sweep", leaf)
		}
		seen[leaf] = true
		order = append(order, leaf)
	}
	// Reverse-lexicographic: consecutive leaves differ in their top bit
	// (paths alternate between the root's two subtrees).
	w := uint(b.data.geom.Levels - 1)
	for i := 1; i < len(order); i++ {
		if (order[i-1]^order[i])>>(w-1) != 1 {
			t.Fatalf("leaves %d and %d share a root subtree at positions %d,%d", order[i-1], order[i], i-1, i)
		}
	}
	if next := b.nextEvictLeaf(); next != order[0] {
		t.Fatalf("sweep did not wrap: got %d, want %d", next, order[0])
	}
}

// TestBatchedDeterministic: identical (cfg, key, seed) inputs and identical
// batches produce byte-identical adversary-visible storage.
func TestBatchedDeterministic(t *testing.T) {
	cfg := smallBatchedConfig()
	run := func() []byte {
		b := newTestBatched(t, cfg, 42)
		for slot := 0; slot < 40; slot++ {
			ops := []BatchOp{
				{Addr: uint64(slot) % cfg.DataBlocks, Fn: func(d []byte) { d[0] = byte(slot) }},
				{Addr: uint64(slot*3) % cfg.DataBlocks, Fn: func([]byte) {}},
			}
			if err := b.AccessBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		return append([]byte(nil), b.rec.orams[0].Storage().(*ByteStorage).Bytes()...)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical inputs produced diverging storage")
	}
}
