package pathoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	"tcoram/internal/crypt"
)

// This file implements the one ORAM stack the service runs: a data tree,
// Recursion position-map trees, and a fetch policy. The three presets the
// server names are parameter points of it:
//
//	flat       Recursion = 0, classic policy
//	recursive  Recursion = N, classic policy
//	batched    Recursion ≥ 0, deferred policy (BatchK, EvictEvery)
//
// Classic reads and rewrites the same path, one block per slot — the paper's
// access. Deferred fetches up to BatchK distinct blocks per slot read-only
// (dummies pad the count to exactly BatchK, so the storage trace is
// independent of queue depth) and pays the write half in a deterministic
// eviction pass every EvictEvery slots along reverse-lexicographic paths —
// the background-eviction idea of "Towards Practical Oblivious RAM"
// (Stefanov et al.) crossed with the deterministic eviction order of Ring
// ORAM. BatchK and EvictEvery are public parameters of the schedule, like
// the rate set R: they shape every slot identically and leak nothing about
// the request stream. Classic is not deferred at BatchK = EvictEvery = 1:
// that would move three path transfers per slot (fetch, eviction read,
// eviction write) where classic moves two, which is why the policy is a
// branch and not a parameter value.

// BatchOp is one member of a slot: apply Fn to the block's payload while it
// sits in the stash (the same RMW contract as Update).
type BatchOp struct {
	Addr uint64
	Fn   func(data []byte)
}

// StackConfig configures a Stack. The embedded RecursiveConfig is its shape;
// BatchK selects the policy: 0 is classic, ≥ 1 is deferred with that many
// paths per slot.
type StackConfig struct {
	RecursiveConfig

	// BatchK is the number of data paths fetched per deferred slot, real or
	// dummy. Public parameter.
	BatchK int
	// EvictEvery is the slot period of the background eviction pass
	// (default 4). Public parameter.
	EvictEvery int
	// EvictPaths is the number of reverse-lexicographic paths read and
	// rewritten per eviction pass. Default ceil(BatchK*EvictEvery/2): at
	// most BatchK·EvictEvery blocks enter the stash between passes, and
	// with Z=3 each evicted path absorbs well over two of them on average
	// (the same access-to-eviction ratio Ring ORAM proves stable at
	// A=3, Z=4).
	EvictPaths int
	// StashHighWater forces an early eviction pass when the data-level
	// stash reaches this occupancy (default 8·BatchK·EvictEvery+64). The
	// forced pass is an observable deviation from the fixed cadence, so it
	// is a safety valve against pathological stash growth, not part of the
	// steady-state schedule; ForcedEvictions counts how often it fired.
	StashHighWater int
}

// BatchedConfig is StackConfig under the name the deferred preset's callers
// use.
type BatchedConfig = StackConfig

// Deferred reports whether the config selects the deferred policy.
func (c StackConfig) Deferred() bool { return c.BatchK != 0 }

// withDefaults fills the deferred schedule's unset knobs.
func (c StackConfig) withDefaults() StackConfig {
	if !c.Deferred() {
		return c
	}
	if c.EvictEvery == 0 {
		c.EvictEvery = 4
	}
	if c.EvictPaths == 0 {
		c.EvictPaths = max((c.BatchK*c.EvictEvery+1)/2, 1)
	}
	if c.StashHighWater == 0 {
		c.StashHighWater = 8*c.BatchK*c.EvictEvery + 64
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c StackConfig) Validate() error {
	if err := c.RecursiveConfig.Validate(); err != nil {
		return err
	}
	for _, g := range c.Geometries() {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	if !c.Deferred() {
		if c.EvictEvery != 0 || c.EvictPaths != 0 || c.StashHighWater != 0 {
			return fmt.Errorf("pathoram: EvictEvery, EvictPaths and StashHighWater belong to the deferred policy; set BatchK to select it")
		}
		return nil
	}
	c = c.withDefaults()
	switch {
	case c.Z > 8:
		return fmt.Errorf("pathoram: the deferred policy keeps a bucket's tombstones in a one-byte mask, so Z must be at most 8, got %d", c.Z)
	case c.BatchK < 1 || c.BatchK > 64:
		return fmt.Errorf("pathoram: BatchK must be in [1,64], got %d", c.BatchK)
	case c.EvictEvery < 1 || c.EvictEvery > 4096:
		return fmt.Errorf("pathoram: EvictEvery must be in [1,4096], got %d", c.EvictEvery)
	case c.EvictPaths < 1:
		return fmt.Errorf("pathoram: EvictPaths must be positive, got %d", c.EvictPaths)
	case c.StashHighWater < c.BatchK:
		return fmt.Errorf("pathoram: StashHighWater %d cannot hold one slot's influx (BatchK %d)", c.StashHighWater, c.BatchK)
	}
	return nil
}

// SlotSig is the adversary-visible storage-access signature of one slot:
// bucket transfer counts and bytes moved across the whole stack, plus
// whether the slot carried an eviction pass. Because every deferred slot
// fetches exactly BatchK data paths (dummy-padded) and evictions follow a
// fixed cadence, the signature sequence is a function of the slot index
// alone — the data-independence tests compare these byte-for-byte across
// queue depths.
type SlotSig struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Bytes  uint64 `json:"bytes"`
	Evict  bool   `json:"evict"`
}

// rec is the recursion of a stack: its trees and the chain that resolves a
// block's leaf through them.
type rec struct {
	orams []*ORAM // orams[0] = data, orams[1..] = position maps, largest first
	fan   uint64  // labels per position-map block
}

// Stack is a functional Path ORAM stack: the data ORAM's position map is
// stored in a smaller ORAM, and so on, with the deepest tree's map held by
// the controller. An access touches every level (smallest position map
// first), exactly the traffic pattern the timing model costs. A Stack is
// safe for use from one goroutine at a time.
type Stack struct {
	cfg StackConfig
	rec
	data *ORAM // orams[0]
	// readBuf is the reused read-result scratch: Access(OpRead) copies the
	// block into it and returns it, so the steady-state hot path allocates
	// nothing. The returned slice is only valid until the next access.
	readBuf []byte

	Accesses      uint64
	DummyAccesses uint64

	// Deferred-policy schedule state.
	evictCounter uint64 // reverse-lexicographic eviction-path counter
	sinceEvict   int    // slots since the last eviction pass
	slots        uint64 // deferred slots served
	evictPasses  uint64
	forced       uint64 // eviction passes triggered by StashHighWater

	// TraceSlots records a SlotSig per deferred slot into SlotTrace.
	TraceSlots bool
	SlotTrace  []SlotSig
	levelPrev  []levelIO // per-level counter snapshot for SlotSig deltas
}

// Recursive and Batched are the names the classic and deferred presets'
// callers know the stack by.
type (
	Recursive = Stack
	Batched   = Stack
)

type levelIO struct{ reads, writes uint64 }

// NewStack builds and initializes the stack on in-RAM storage. rng drives
// leaf remapping at every level and seeds each level's write keystream with
// a 16-byte IV; it is mutable and unsynchronized: two stacks must never
// share one (ShardSeed derives an independent deterministic stream per
// shard).
func NewStack(cfg StackConfig, key crypt.Key, rng *rand.Rand) (*Stack, error) {
	return NewStackOn(cfg, key, rng, nil)
}

// NewStackOn is NewStack with every level's untrusted store built by factory
// (nil means in-RAM ByteStorage everywhere): level 0 is the data ORAM,
// levels 1..Recursion the position-map ORAMs from largest to smallest.
func NewStackOn(cfg StackConfig, key crypt.Key, rng *rand.Rand, factory StorageFactory) (*Stack, error) {
	return buildStack(cfg, rng, func(level int, g Geometry, rng *rand.Rand, role treeRole) (*ORAM, error) {
		store, err := newStore(factory, level, g)
		if err != nil {
			return nil, err
		}
		return newORAM(g, key, rng, store, role)
	})
}

// NewRecursive is NewStack for a classic stack of the given shape.
func NewRecursive(cfg RecursiveConfig, key crypt.Key, rng *rand.Rand) (*Stack, error) {
	return NewStack(StackConfig{RecursiveConfig: cfg}, key, rng)
}

// NewBatched is NewStack for the deferred policy, BatchK defaulting to 4.
func NewBatched(cfg BatchedConfig, key crypt.Key, rng *rand.Rand) (*Stack, error) {
	return NewBatchedOn(cfg, key, rng, nil)
}

// NewBatchedOn is NewBatched over factory-built stores.
func NewBatchedOn(cfg BatchedConfig, key crypt.Key, rng *rand.Rand, factory StorageFactory) (*Stack, error) {
	if cfg.BatchK == 0 {
		cfg.BatchK = 4
	}
	return NewStackOn(cfg, key, rng, factory)
}

// buildStack assembles a stack whose trees come from level — fresh ones for
// NewStackOn, recovered ones for RecoverStack — and moves each tree's top
// min(6, L−1) levels into its trusted cache. Only the deepest tree owns a
// position map, one label per address it can hold (OnChipPosMapEntries),
// and only a deferred stack's data tree keeps tombstones.
func buildStack(cfg StackConfig, rng *rand.Rand, level func(i int, g Geometry, rng *rand.Rand, role treeRole) (*ORAM, error)) (*Stack, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	s := &Stack{
		cfg:     cfg,
		rec:     rec{fan: cfg.LabelsPerBlock()},
		readBuf: make([]byte, cfg.DataBlockBytes),
	}
	geoms, blocks := cfg.Geometries(), cfg.treeBlocks()
	for i, g := range geoms {
		o, err := level(i, g, rng, treeRole{blocks: blocks[i], owner: i == len(geoms)-1, deferred: i == 0 && cfg.Deferred()})
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i, err)
		}
		if i > 0 {
			// A position-map block created on first touch must read
			// unassignedLabel in every slot, or the tree above it would
			// fetch each of its own first touches along path 0.
			o.fresh = bytes.Repeat([]byte{0xFF}, g.BlockBytes)
		}
		if err := o.cacheTop(topLevelsFor(g)); err != nil {
			return nil, fmt.Errorf("level %d: %w", i, err)
		}
		s.orams = append(s.orams, o)
	}
	s.data = s.orams[0]
	return s, nil
}

// Config returns the stack configuration (with defaults applied).
func (s *Stack) Config() StackConfig { return s.cfg }

// DataORAM exposes the data-level ORAM (test hook).
func (s *Stack) DataORAM() *ORAM { return s.data }

// Blocks returns the addressable data-block count — the stack's geometry as
// seen by a client of the data address space.
func (s *Stack) Blocks() uint64 { return s.cfg.DataBlocks }

// BlockBytes returns the data-block payload size.
func (s *Stack) BlockBytes() int { return s.cfg.DataBlockBytes }

// BatchK returns the number of distinct blocks one slot can serve: the
// deferred policy's fetch width, 1 for classic.
func (s *Stack) BatchK() int { return max(s.cfg.BatchK, 1) }

// EnableIntegrity attaches Merkle verification to every level of the stack —
// the data ORAM and each position-map ORAM — so tampering with any tree,
// including the recursion's metadata trees, fails the next path read. Must
// precede all accesses (each level's ORAM enforces this).
func (s *Stack) EnableIntegrity() {
	for _, o := range s.orams {
		o.EnableIntegrity()
	}
}

// StashOccupancy aggregates stash sizes across the stack: the current total
// over all levels, and the sum of per-level peaks (an upper bound on any
// simultaneous total, which is what an on-chip SRAM budget must provision
// for since every level's stash coexists in the controller).
func (s *Stack) StashOccupancy() (cur, peak int) {
	for _, o := range s.orams {
		c, p := o.StashOccupancy()
		cur += c
		peak += p
	}
	return cur, peak
}

// LevelStashPeaks appends each level's peak stash occupancy to dst — index
// 0 is the data ORAM (whose stash carries the deferred-eviction backlog),
// followed by position-map ORAMs from largest to smallest — and returns the
// extended slice.
func (s *Stack) LevelStashPeaks(dst []int) []int {
	for _, o := range s.orams {
		dst = append(dst, o.stash.MaxOccupancy())
	}
	return dst
}

// flushTop writes every level's dirty cached buckets to its store, so each
// Merkle root covers the tree's full contents: the first step of every
// capture.
func (s *Stack) flushTop() error {
	for i, o := range s.orams {
		if err := o.flushTop(); err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
	}
	return nil
}

// StorageStats aggregates the cache and file-IO counters of every level's
// untrusted store.
func (s *Stack) StorageStats() StorageStats {
	var sum StorageStats
	for _, o := range s.orams {
		sum = sum.add(o.StorageStats())
	}
	return sum
}

// ForcedEvictions returns how many eviction passes were forced by the
// StashHighWater guard rather than the fixed cadence.
func (s *Stack) ForcedEvictions() uint64 { return s.forced }

// EvictPassCount returns the total number of eviction passes run.
func (s *Stack) EvictPassCount() uint64 { return s.evictPasses }

// Slots returns the number of deferred slots served.
func (s *Stack) Slots() uint64 { return s.slots }

// StashBound is the documented worst-case data-level stash occupancy under
// the high-water policy: the guard fires once occupancy reaches
// StashHighWater after a slot's ≤BatchK-block influx, and the eviction pass
// itself transiently stages up to Z·Levels tree blocks per path before the
// same path's write-back re-evicts them.
func (s *Stack) StashBound() int {
	g := s.data.geom
	return s.cfg.StashHighWater + s.cfg.BatchK + g.Z*g.Levels
}

// lookupAndRemap returns the current leaf label of block index of
// orams[tree] (unassignedLabel if it was never touched) and records
// newLabel as its next one. The deepest tree's labels live in its own
// in-controller position map; every other tree's labels live in blocks of
// the tree below it, reached by one classic access there (and, recursively,
// everywhere deeper).
func (r *rec) lookupAndRemap(tree int, index uint64, newLabel uint32) (uint32, error) {
	if tree == len(r.orams)-1 {
		pm := &r.orams[tree].posmap
		cur := pm.flat[index]
		pm.Set(index, newLabel)
		return cur, nil
	}
	pm := r.orams[tree+1] // position-map ORAM holding this tree's labels
	blockIdx, slot := index/r.fan, index%r.fan
	blockNewLeaf := uint32(pm.randomLeaf())
	blockCurLeaf, err := r.lookupAndRemap(tree+1, blockIdx, blockNewLeaf)
	if err != nil {
		return 0, err
	}
	var cur uint32
	err = pm.accessAt(blockIdx, blockCurLeaf, uint64(blockNewLeaf), func(data []byte) {
		cur = binary.LittleEndian.Uint32(data[slot*LabelBytes:])
		binary.LittleEndian.PutUint32(data[slot*LabelBytes:], newLabel)
	})
	return cur, err
}

func (s *Stack) checkAddr(addr uint64) error {
	if addr >= s.cfg.DataBlocks {
		return fmt.Errorf("pathoram: data block %d out of range (%d blocks)", addr, s.cfg.DataBlocks)
	}
	return nil
}

// Update performs one slot that applies fn to the data block's payload
// while it sits in the data ORAM's stash: a read-modify-write through the
// whole stack in a single all-levels traversal. fn may inspect the current
// contents (zeroes if never written) and mutate them in place; it must not
// retain the slice past the call. Under the deferred policy the slot still
// fetches BatchK paths and follows the eviction cadence.
func (s *Stack) Update(addr uint64, fn func(data []byte)) error {
	if s.cfg.Deferred() {
		if err := s.fetch(addr, fn); err != nil {
			return err
		}
		return s.finishSlot(1)
	}
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	if err := s.classicAccess(addr, fn); err != nil {
		return err
	}
	s.Accesses++
	return nil
}

// classicAccess reads and rewrites the block's path at every level.
func (s *Stack) classicAccess(addr uint64, fn func(data []byte)) error {
	if len(s.orams) == 1 {
		// Recursion = 0: the data tree's own map is the whole recursion.
		return s.data.Update(addr, fn)
	}
	newLeaf := uint32(s.data.randomLeaf())
	curLeaf, err := s.lookupAndRemap(0, addr, newLeaf)
	if err != nil {
		return err
	}
	return s.data.accessAt(addr, curLeaf, uint64(newLeaf), fn)
}

// Access performs one slot for the given data block. For OpRead the
// returned slice is a reused scratch buffer, valid only until the next
// access on this stack — copy it to retain.
func (s *Stack) Access(op Op, addr uint64, data []byte) ([]byte, error) {
	if op == OpWrite && len(data) != s.cfg.DataBlockBytes {
		return nil, fmt.Errorf("pathoram: write payload is %d bytes, want %d", len(data), s.cfg.DataBlockBytes)
	}
	var out []byte
	err := s.Update(addr, func(buf []byte) {
		if op == OpWrite {
			copy(buf, data)
		} else {
			out = s.readBuf[:copy(s.readBuf, buf)]
		}
	})
	return out, err
}

// DummyAccess serves an all-dummy slot, indistinguishable from a loaded
// one: classic reads and rewrites a random path at every level; deferred
// makes BatchK dummy fetches and follows the eviction cadence.
func (s *Stack) DummyAccess() error {
	if s.cfg.Deferred() {
		return s.finishSlot(0)
	}
	for i := len(s.orams) - 1; i >= 0; i-- {
		if err := s.orams[i].DummyAccess(); err != nil {
			return err
		}
	}
	s.DummyAccesses++
	return nil
}

// AccessBatch serves one slot carrying ops, at most BatchK of them; an empty
// ops is the dummy slot. Under the deferred policy that is exactly BatchK
// data-path fetches — the first len(ops) real, the rest dummies — followed
// by an eviction pass when one is due. Duplicate addresses within a batch
// are legal; later members find the block already in the stash and their
// fetch degenerates to a dummy-shaped path read, so coalescing at the server
// is an optimization, not a requirement.
func (s *Stack) AccessBatch(ops []BatchOp) error {
	if len(ops) > s.BatchK() {
		return fmt.Errorf("pathoram: batch of %d exceeds BatchK %d", len(ops), s.BatchK())
	}
	if !s.cfg.Deferred() {
		if len(ops) == 0 {
			return s.DummyAccess()
		}
		return s.Update(ops[0].Addr, ops[0].Fn)
	}
	for _, op := range ops {
		if err := s.fetch(op.Addr, op.Fn); err != nil {
			return err
		}
	}
	return s.finishSlot(len(ops))
}

// fetch resolves addr through the position-map recursion (classic accesses
// at every posmap level), then fetches the data path read-only, parking the
// block in the stash under its fresh leaf.
func (s *Stack) fetch(addr uint64, fn func(data []byte)) error {
	if err := s.checkAddr(addr); err != nil {
		return err
	}
	newLeaf := uint32(s.data.randomLeaf())
	curLeaf, err := s.lookupAndRemap(0, addr, newLeaf)
	if err != nil {
		return err
	}
	blk, err := s.data.fetchPath(s.data.pathLeaf(curLeaf), addr, uint64(newLeaf))
	if err != nil {
		return err
	}
	if fn != nil {
		fn(blk.Data)
	}
	s.data.Accesses++
	s.Accesses++
	return nil
}

// finishSlot completes a deferred slot that made fetched real fetches: pad
// to BatchK with dummy fetches — a classic dummy access at every posmap
// level (same order as a real fetch's recursion unwind) and a read-only
// fetch of a random data path that extracts nothing — then run the eviction
// pass if one is due (every EvictEvery slots, or early if the stash hit the
// high-water mark).
func (s *Stack) finishSlot(fetched int) error {
	for ; fetched < s.cfg.BatchK; fetched++ {
		for i := len(s.orams) - 1; i >= 1; i-- {
			if err := s.orams[i].DummyAccess(); err != nil {
				return err
			}
		}
		if _, err := s.data.fetchPath(s.data.randomLeaf(), DummyAddr, 0); err != nil {
			return err
		}
		s.data.DummyAccesses++
		s.DummyAccesses++
	}
	s.slots++
	s.sinceEvict++
	evict := s.sinceEvict >= s.cfg.EvictEvery
	if !evict && s.data.stash.Len() >= s.cfg.StashHighWater {
		s.forced++
		evict = true
	}
	if evict {
		// EvictPaths reverse-lexicographic paths, read and greedily
		// rewritten: a deterministic sweep that touches every bucket at a
		// fixed frequency regardless of the access pattern.
		for i := 0; i < s.cfg.EvictPaths; i++ {
			leaf := s.nextEvictLeaf()
			if err := s.data.readPath(leaf); err != nil {
				return err
			}
			if err := s.data.writePath(leaf); err != nil {
				return err
			}
		}
		s.evictPasses++
		s.sinceEvict = 0
	}
	if s.TraceSlots {
		s.recordSlot(evict)
	}
	return nil
}

// nextEvictLeaf returns the next leaf of the reverse-lexicographic eviction
// order: the bit-reversal of a counter, so successive paths diverge at the
// root and every subtree is visited at a frequency proportional to its
// size (Ring ORAM's deterministic order; see also SNIPPETS Snippet 1).
func (s *Stack) nextEvictLeaf() uint64 {
	w := uint(s.data.geom.Levels - 1)
	ctr := s.evictCounter
	s.evictCounter++
	if w == 0 {
		return 0
	}
	return bits.Reverse64(ctr%s.data.geom.Leaves()) >> (64 - w)
}

// recordSlot appends the slot's SlotSig from per-level counter deltas.
func (s *Stack) recordSlot(evict bool) {
	if s.levelPrev == nil {
		s.levelPrev = make([]levelIO, len(s.orams))
	}
	sig := SlotSig{Evict: evict}
	for i, o := range s.orams {
		dr := o.BucketReads - s.levelPrev[i].reads
		dw := o.BucketWrites - s.levelPrev[i].writes
		sig.Reads += dr
		sig.Writes += dw
		sig.Bytes += (dr + dw) * uint64(o.geom.BucketCipherBytes())
		s.levelPrev[i] = levelIO{o.BucketReads, o.BucketWrites}
	}
	s.SlotTrace = append(s.SlotTrace, sig)
}

// CheckInvariant verifies every level's path invariant (with tombstoned
// copies excluded), including that no block is live both in a stash and in
// its tree, and the deepest tree against its position map. It then checks
// each other tree against the labels that locate it: a live block a of tree
// i must carry, as its leaf, slot a%fan of block a/fan of tree i+1, and every
// assigned label there must name a live block. O(tree); intended for tests.
func (s *Stack) CheckInvariant() error {
	lives := make([]map[uint64]Block, len(s.orams))
	for i, o := range s.orams {
		located, err := o.live()
		if err == nil {
			err = o.checkMap(located)
		}
		if err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
		lives[i] = located
	}
	for i := 0; i+1 < len(s.orams); i++ {
		for addr, b := range lives[i] {
			label := unassignedLabel
			if pm, ok := lives[i+1][addr/s.fan]; ok {
				label = binary.LittleEndian.Uint32(pm.Data[addr%s.fan*LabelBytes:])
			}
			if uint64(label) != b.Leaf {
				return fmt.Errorf("level %d: block %#x carries leaf %d, its label in level %d reads %d", i, addr, b.Leaf, i+1, label)
			}
		}
		for idx, pm := range lives[i+1] {
			for slot := uint64(0); slot < s.fan; slot++ {
				addr := idx*s.fan + slot
				if binary.LittleEndian.Uint32(pm.Data[slot*LabelBytes:]) == unassignedLabel {
					continue
				}
				if _, ok := lives[i][addr]; !ok {
					return fmt.Errorf("level %d: block %#x has a label in level %d but is in neither stash nor tree", i, addr, i+1)
				}
			}
		}
	}
	return nil
}
