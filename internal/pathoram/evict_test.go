package pathoram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestEvictionDeterministicAcrossRuns pins the fix for the old
// map-iteration eviction: two identically seeded ORAMs driven through the
// same operation sequence must end with byte-identical untrusted memory,
// identical stash contents and identical position maps. When eviction
// walked a Go map, bucket contents varied run to run even at equal seeds.
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
	aBlocks, bBlocks := a.stash.blocks, b.stash.blocks
	if len(aBlocks) != len(bBlocks) {
		t.Fatalf("stash sizes differ: %d vs %d", len(aBlocks), len(bBlocks))
	}
	for i := range aBlocks {
		if aBlocks[i].Addr != bBlocks[i].Addr {
			t.Fatalf("stash order differs at slot %d: %d vs %d", i, aBlocks[i].Addr, bBlocks[i].Addr)
		}
	}
	for addr, leaf := range a.posmap.flat {
		if got := b.posmap.flat[addr]; got != leaf {
			t.Fatalf("position map differs at addr %d: %d vs %d", addr, leaf, got)
		}
	}
}

// TestPlanPathEvictionOrderPinned pins the deterministic selection and
// removal order: candidates in stash slot (insertion) order, and the
// survivors in the order the descending swap-removes leave them.
func TestPlanPathEvictionOrderPinned(t *testing.T) {
	g := Geometry{Levels: 4, Z: 2, BlockBytes: 8}
	s := NewStash()
	for _, addr := range []uint64{30, 10, 20} {
		s.Put(Block{Addr: addr, Leaf: 0, Data: make([]byte, 8)})
	}
	// On the path to leaf 7 all three are eligible at the root only; z=2
	// takes slots 0 and 1 (30 and 10). Removing slot 1 swaps 20 into it,
	// and removing slot 0 then swaps 20 into slot 0. The exact sequence
	// matters less than that it is a pure function of the operation
	// history — this pins it.
	var plan EvictPlan
	s.PlanPathEviction(g, 7, g.Z, &plan)
	var got []uint64
	for _, i := range plan.LevelBlocks(0) {
		got = append(got, s.BlockAt(i).Addr)
	}
	if !slices.Equal(got, []uint64{30, 10}) {
		t.Fatalf("root bucket takes %v, want [30 10]", got)
	}
	s.RemovePlanned(&plan)
	if s.Len() != 1 || s.BlockAt(0).Addr != 20 {
		t.Fatalf("stash keeps %d blocks, want block 20 alone", s.Len())
	}
}

// TestRemovePlannedMatchesSortedRemoval checks the one-pass removal against
// the reference it replaced — sort the chosen slots, then swap-remove them
// largest first — over random stashes and plans, with one stash and one
// plan reused throughout, so a mark left set by one round would corrupt the
// next.
func TestRemovePlannedMatchesSortedRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := Geometry{Levels: 6, Z: 3, BlockBytes: 8}
	s := NewStash()
	s.reserve(2*g.Z*g.Levels, g.BlockBytes)
	var plan EvictPlan
	var next uint64
	for round := 0; round < 2000; round++ {
		for n := rng.Intn(3 * g.Z * g.Levels / 2); n > 0; n-- {
			data := make([]byte, g.BlockBytes)
			binary.LittleEndian.PutUint64(data, next)
			s.Put(Block{Addr: next, Leaf: uint64(rng.Int63n(int64(g.Leaves()))), Data: data})
			next++
		}
		z := 1 + rng.Intn(g.Z)
		s.PlanPathEviction(g, uint64(rng.Int63n(int64(g.Leaves()))), z, &plan)
		want := slices.Clone(s.blocks)
		var picked []int
		for l := range g.Levels {
			picked = append(picked, plan.LevelBlocks(l)...)
		}
		slices.Sort(picked)
		for k := len(picked) - 1; k >= 0; k-- {
			last := len(want) - 1
			want[picked[k]] = want[last]
			want = want[:last]
		}
		s.RemovePlanned(&plan)
		if len(s.blocks) != len(want) {
			t.Fatalf("round %d: %d blocks left, want %d", round, len(s.blocks), len(want))
		}
		for i, b := range s.blocks {
			if b.Addr != want[i].Addr || b.Leaf != want[i].Leaf || binary.LittleEndian.Uint64(b.Data) != b.Addr {
				t.Fatalf("round %d, slot %d: block %d (leaf %d), want %d (leaf %d)", round, i, b.Addr, b.Leaf, want[i].Addr, want[i].Leaf)
			}
		}
		if i := slices.Index(plan.marked, true); i >= 0 {
			t.Fatalf("round %d: slot %d still marked after RemovePlanned", round, i)
		}
	}
}

// TestStashHighWaterAllocFree: a stash reserved for n blocks climbs to n
// for the first time without allocating — the block list and the payload
// buffers are in place — and planning and removing a write-back over the
// full stash, every block in one deepest-level group or carried up,
// allocates nothing either once the plan, its mark array included, was
// sized (an ORAM's first access sizes it). Without both, each new
// high-water mark grew the heap, in whichever slot, real or dummy, happened
// to set it.
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
		s.RemovePlanned(&plans[i])
	}
	runtime.ReadMemStats(&after)
	if peak := stashes[0].MaxOccupancy(); peak != n {
		t.Fatalf("stash peak %d, want %d", peak, n)
	}
	if got := (after.Mallocs - before.Mallocs) / runs; got != 0 {
		t.Errorf("climbing to a %d-block high-water mark and planning and removing its write-back allocates %d times, want 0", n, got)
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
// pass included. Both allocate nothing: a fetch tombstones the slot it
// takes a copy from by setting a bit in the tree's one-byte-per-bucket
// mask, and a write-back clears a bucket's byte.
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
