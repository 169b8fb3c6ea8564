package pathoram

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestEvictionDeterministicAcrossRuns pins the satellite fix for the old
// map-iteration eviction: two identically seeded ORAMs driven through the
// same operation sequence must end with byte-identical untrusted memory,
// identical stash contents and identical position maps. Under the original
// EvictForBucket (Go map iteration order), bucket contents varied run to
// run even at equal seeds.
func TestEvictionDeterministicAcrossRuns(t *testing.T) {
	runOps := func() *ORAM {
		o, err := NewORAM(Geometry{Levels: 7, Z: 3, BlockBytes: 16}, testKey(42), rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 400; i++ {
			addr := uint64(rng.Int63n(80))
			if rng.Intn(2) == 0 {
				data := make([]byte, 16)
				rng.Read(data)
				if _, err := o.Access(OpWrite, addr, data); err != nil {
					t.Fatal(err)
				}
			} else if _, err := o.Access(OpRead, addr, nil); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	a, b := runOps(), runOps()
	if !bytes.Equal(a.Storage().(*ByteStorage).Bytes(), b.Storage().(*ByteStorage).Bytes()) {
		t.Fatal("identically seeded runs produced different untrusted memory")
	}
	aAddrs, bAddrs := a.stash.Addrs(), b.stash.Addrs()
	if len(aAddrs) != len(bAddrs) {
		t.Fatalf("stash sizes differ: %d vs %d", len(aAddrs), len(bAddrs))
	}
	for i := range aAddrs {
		if aAddrs[i] != bAddrs[i] {
			t.Fatalf("stash order differs at slot %d: %d vs %d", i, aAddrs[i], bAddrs[i])
		}
	}
	a.posmap.ForEach(func(addr, leaf uint64) {
		if got, ok := b.posmap.Get(addr); !ok || got != leaf {
			t.Fatalf("position map differs at addr %d: %d vs %d (ok=%v)", addr, leaf, got, ok)
		}
	})
}

// TestEvictForBucketOrderPinned pins the deterministic selection order:
// stash slot (insertion) order.
func TestEvictForBucketOrderPinned(t *testing.T) {
	g := Geometry{Levels: 4, Z: 2, BlockBytes: 8}
	s := NewStash()
	for _, addr := range []uint64{30, 10, 20} {
		s.Put(Block{Addr: addr, Leaf: 0, Data: make([]byte, 8)})
	}
	// All three are eligible at the root; z=2 scans in slot order: slot 0
	// (30) is taken and the swap-remove moves 20 into slot 0, which is
	// examined next. The exact sequence matters less than that it is a pure
	// function of the operation history — this pins it.
	got := s.EvictForBucket(g, 7, 0, 2)
	if len(got) != 2 || got[0].Addr != 30 || got[1].Addr != 20 {
		t.Fatalf("EvictForBucket order = %v, want [30 20]", []uint64{got[0].Addr, got[1].Addr})
	}
}

// TestStashHighWaterAllocFree: a stash reserved for n blocks climbs to n
// for the first time without allocating — the block list, the index and
// the payload buffers are all in place — and planning a write-back over the
// full stash, every block in one deepest-level group or carried up,
// allocates nothing either once the plan was sized (an ORAM's first access
// sizes it). Without both, each new high-water mark grew the heap, in
// whichever slot, real or dummy, happened to set it.
func TestStashHighWaterAllocFree(t *testing.T) {
	g := Geometry{Levels: 5, Z: 2, BlockBytes: 16}
	const n, runs = 2 * 2 * 5, 100
	stashes := make([]*Stash, runs)
	plans := make([]EvictPlan, runs)
	for i := range stashes {
		stashes[i] = NewStash()
		stashes[i].reserve(n, g.BlockBytes)
		stashes[i].PlanPathEviction(g, 0, g.Z, &plans[i])
	}
	payload := make([]byte, g.BlockBytes)

	// Like testing.AllocsPerRun, the count is per climb, rounded down, so a
	// stray allocation elsewhere in the process does not decide the test.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, s := range stashes {
		for a := uint64(0); a < n; a++ {
			s.Put(Block{Addr: a, Leaf: a % 2 * 15, Data: payload})
		}
		s.PlanPathEviction(g, 0, g.Z, &plans[i])
	}
	runtime.ReadMemStats(&after)
	if peak := stashes[0].MaxOccupancy(); peak != n {
		t.Fatalf("stash peak %d, want %d", peak, n)
	}
	if got := (after.Mallocs - before.Mallocs) / runs; got != 0 {
		t.Errorf("climbing to a %d-block high-water mark and planning its write-back allocates %d times, want 0", n, got)
	}
}

// TestPlanPathEvictionGreedy checks the grouped single-scan planner against
// the greedy write-back semantics: per-level selections are disjoint, ≤ Z,
// and every chosen block is legal for its bucket; blocks that fit nowhere
// stay in the stash.
func TestPlanPathEvictionGreedy(t *testing.T) {
	g := Geometry{Levels: 4, Z: 1, BlockBytes: 8}
	s := NewStash()
	// Leaves: 0..7. Path to leaf 0. Deepest eligible level for leaf 0: 3;
	// leaf 1: 2; leaf 2 and 3: 1; leaf ≥ 4: 0.
	for _, b := range []struct{ addr, leaf uint64 }{
		{1, 0}, {2, 0}, {3, 1}, {4, 7},
	} {
		s.Put(Block{Addr: b.addr, Leaf: b.leaf, Data: make([]byte, 8)})
	}
	var plan EvictPlan
	s.PlanPathEviction(g, 0, g.Z, &plan)
	want := map[int]uint64{
		3: 1, // first leaf-0 block in slot order fills the leaf bucket
		2: 2, // second leaf-0 block carries up to level 2 (before the leaf-1 block's group)
		1: 3, // leaf-1 block carries to level 1
		0: 4, // leaf-7 block shares only the root
	}
	for level := 0; level < g.Levels; level++ {
		sel := plan.LevelBlocks(level)
		if len(sel) != 1 {
			t.Fatalf("level %d: %d blocks selected, want 1", level, len(sel))
		}
		if got := s.BlockAt(sel[0]).Addr; got != want[level] {
			t.Fatalf("level %d: block %d selected, want %d", level, got, want[level])
		}
		if !g.OnPath(0, s.BlockAt(sel[0]).Leaf, level) {
			t.Fatalf("level %d: selected block is not legal for this bucket", level)
		}
	}
	s.RemovePlanned(&plan)
	if s.Len() != 0 {
		t.Fatalf("stash holds %d blocks after full eviction, want 0", s.Len())
	}
}

// TestDeepestLevelMatchesOnPath cross-checks the grouping key against the
// placement predicate it summarizes.
func TestDeepestLevelMatchesOnPath(t *testing.T) {
	g := Geometry{Levels: 6, Z: 1, BlockBytes: 8}
	for a := uint64(0); a < g.Leaves(); a += 3 {
		for b := uint64(0); b < g.Leaves(); b += 5 {
			dl := g.DeepestLevel(a, b)
			if !g.OnPath(a, b, dl) {
				t.Fatalf("DeepestLevel(%d,%d)=%d but OnPath is false", a, b, dl)
			}
			if dl+1 < g.Levels && g.OnPath(a, b, dl+1) {
				t.Fatalf("DeepestLevel(%d,%d)=%d but OnPath holds one level deeper", a, b, dl)
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun started from a collection and a few
// settle runs, like the server's TestHeapIgnoresRealDummyMix. Without them a
// collection the warm-up's garbage triggers can land inside the measured
// runs, and the runtime's own allocations after one (the unique package's
// cleanup, sync.Pool re-pinning, the caches a collection empties and the
// next runs refill) count as the code's.
func allocsPerRun(runs int, f func()) float64 {
	const settle = 5
	runtime.GC()
	for i := 0; i < settle; i++ {
		f()
	}
	return testing.AllocsPerRun(runs, f)
}

// TestAccessAllocBudget enforces the zero-allocation hot path: steady-state
// writes allocate nothing; reads allocate only the returned payload copy.
func TestAccessAllocBudget(t *testing.T) {
	o, err := NewORAM(Geometry{Levels: 7, Z: 3, BlockBytes: 64}, testKey(5), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	// Warm up: touch every address so the stash free list, position map and
	// scratch buffers reach steady state.
	for i := 0; i < 400; i++ {
		if _, err := o.Access(OpWrite, uint64(i%64), data); err != nil {
			t.Fatal(err)
		}
	}
	var addr uint64
	if n := allocsPerRun(200, func() {
		if _, err := o.Access(OpWrite, addr%64, data); err != nil {
			t.Fatal(err)
		}
		addr++
	}); n > 1 {
		t.Fatalf("Access(OpWrite) allocates %.1f times per op, want ≤ 1", n)
	}
	if n := allocsPerRun(200, func() {
		if _, err := o.Access(OpRead, addr%64, nil); err != nil {
			t.Fatal(err)
		}
		addr++
	}); n > 2 {
		t.Fatalf("Access(OpRead) allocates %.1f times per op, want ≤ 2 (result buffer only)", n)
	}
	if err := o.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRecursiveAccessAllocBudget extends the budget to a full recursive
// stack: 512 data blocks under two position-map levels.
func TestRecursiveAccessAllocBudget(t *testing.T) {
	r, err := NewRecursive(RecursiveConfig{
		DataBlocks: 512, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 2,
	}, testKey(6), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := 0; i < 1024; i++ {
		if _, err := r.Access(OpWrite, uint64(i%512), data); err != nil {
			t.Fatal(err)
		}
	}
	var addr uint64
	if n := allocsPerRun(200, func() {
		if _, err := r.Access(OpWrite, addr%512, data); err != nil {
			t.Fatal(err)
		}
		addr++
	}); n > 1 {
		t.Fatalf("Recursive.Access(OpWrite) allocates %.1f times per op, want ≤ 1", n)
	}
	// Reads reuse the stack's scratch result buffer: steady state allocates
	// nothing (the old code made a fresh result slice every call).
	if n := allocsPerRun(200, func() {
		if _, err := r.Access(OpRead, addr%512, nil); err != nil {
			t.Fatal(err)
		}
		addr++
	}); n > 0 {
		t.Fatalf("Recursive.Access(OpRead) allocates %.1f times per op, want 0 (reused scratch)", n)
	}
}

// TestBatchedSlotAllocBudget extends the budget to the deferred policy's
// slot: a full batch of k distinct blocks and the all-dummy slot, eviction
// pass included. Both allocate nothing: a write-back that retires a
// bucket's tombstone set clears it onto a spare list, and the next fetch
// that tombstones a copy reuses it.
func TestBatchedSlotAllocBudget(t *testing.T) {
	cfg := BatchedConfig{RecursiveConfig: RecursiveConfig{
		DataBlocks: 512, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 2,
	}, BatchK: 4, EvictEvery: 4}
	b, err := NewBatched(cfg, testKey(7), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	touch := func(d []byte) { d[0]++ }
	ops := make([]BatchOp, cfg.BatchK)
	var next uint64
	slot := func() {
		for i := range ops {
			ops[i] = BatchOp{Addr: next % cfg.DataBlocks, Fn: touch}
			next += 37
		}
		if err := b.AccessBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1024; i++ {
		slot()
	}
	if n := allocsPerRun(200, slot); n > 0 {
		t.Fatalf("AccessBatch of %d ops allocates %.1f times per slot, want 0", cfg.BatchK, n)
	}
	if n := allocsPerRun(200, func() {
		if err := b.DummyAccess(); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("the all-dummy slot allocates %.1f times, want 0", n)
	}
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
