package pathoram

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"tcoram/internal/crypt"
)

// This file implements trusted-state capture and recovery: everything the
// controller keeps on-chip (position maps, stash contents, tombstones,
// Merkle roots, counters) serialized into a ShardState, and constructors
// that rebuild a running ORAM stack from a ShardState plus the untrusted
// bucket stores. The server seals a gob encoding of this state
// (encrypt+MAC via internal/crypt) into its checkpoint file; the split
// matters because the bucket files are untrusted — on recovery the store is
// re-hashed and compared against the sealed Merkle root, and a mismatch
// refuses service (ErrRootMismatch) rather than serving tampered data.

// ErrRootMismatch is returned by RecoverStack when the
// untrusted store's recomputed Merkle root differs from the checkpointed
// root — the fail-closed answer to offline tampering with the bucket file.
var ErrRootMismatch = errors.New("pathoram: untrusted store does not match checkpointed merkle root")

// StashBlockState is one stash-resident block in captured form.
type StashBlockState struct {
	Addr uint64
	Leaf uint64
	Data []byte
}

// LevelState is the captured trusted state of one ORAM tree.
type LevelState struct {
	// Root is the Merkle root of the untrusted bucket ciphertexts at
	// capture time — the only binding between the sealed checkpoint and
	// the bucket file.
	Root [sha256.Size]byte
	// PosDense and PosOver mirror the position map's flat and overflow
	// regions (unknownLeaf marks never-assigned dense slots).
	PosDense []uint64
	PosOver  map[uint64]uint64
	// Stash holds the stash blocks in slot order, so recovery reproduces
	// the exact deterministic eviction behavior of the pre-crash instance.
	Stash     []StashBlockState
	StashPeak int
	// Stale is the batched-mode tombstone map: bucket -> stale addresses.
	Stale map[uint64][]uint64
	// Counters.
	Accesses      uint64
	DummyAccesses uint64
	BucketReads   uint64
	BucketWrites  uint64
}

// BatchedState is the extra trusted state of a deferred-policy stack.
type BatchedState struct {
	EvictCounter uint64
	SinceEvict   int
	Slots        uint64
	EvictPasses  uint64
	Forced       uint64
}

// ShardState is the complete captured trusted state of one shard's stack:
// one LevelState per tree (data ORAM first, then position-map ORAMs) and
// the deferred policy's counters. The deepest level's PosDense is the
// on-chip position map, and level 0's counters are the stack's.
type ShardState struct {
	Levels []LevelState
	// OnChip, StackAccesses and StackDummies are second copies of exactly
	// those, which checkpoints written before the stack unification carry.
	// They are never written and ignored when read; the fields stay so the
	// gob wire type — part of every sealed checkpoint — does not change.
	OnChip        []uint32
	StackAccesses uint64
	StackDummies  uint64
	// Batch is non-nil for deferred-policy stacks.
	Batch *BatchedState
}

// captureLevel snapshots one ORAM's trusted state. Integrity must be
// enabled: without the Merkle tree there is no root to bind the untrusted
// store to, and recovery could not detect tampering.
func (o *ORAM) captureLevel() (LevelState, error) {
	if o.integrity == nil {
		return LevelState{}, errors.New("pathoram: cannot capture state without integrity enabled (no merkle root to checkpoint)")
	}
	ls := LevelState{
		Root:          o.integrity.Root(),
		PosDense:      slices.Clone(o.posmap.flat),
		StashPeak:     o.stash.peak,
		Accesses:      o.Accesses,
		DummyAccesses: o.DummyAccesses,
		BucketReads:   o.BucketReads,
		BucketWrites:  o.BucketWrites,
	}
	if len(o.posmap.over) > 0 {
		ls.PosOver = make(map[uint64]uint64, len(o.posmap.over))
		for a, l := range o.posmap.over {
			ls.PosOver[a] = l
		}
	}
	ls.Stash = o.captureStash()
	ls.Stale = o.captureStale()
	// A full capture supersedes any delta baseline: the journal restarts
	// empty so the next CaptureDelta describes changes since this snapshot.
	o.posmap.resetJournal()
	return ls, nil
}

// captureStash snapshots the stash blocks in slot order (deterministic
// eviction order on recovery).
func (o *ORAM) captureStash() []StashBlockState {
	var out []StashBlockState
	for i := range o.stash.blocks {
		b := &o.stash.blocks[i]
		out = append(out, StashBlockState{Addr: b.Addr, Leaf: b.Leaf, Data: slices.Clone(b.Data)})
	}
	return out
}

// captureStale snapshots the batched-mode tombstone map with sorted address
// lists (deterministic encoding); nil when there are no tombstones.
func (o *ORAM) captureStale() map[uint64][]uint64 {
	if len(o.stale) == 0 {
		return nil
	}
	out := make(map[uint64][]uint64, len(o.stale))
	for bucket, set := range o.stale {
		addrs := make([]uint64, 0, len(set))
		for a := range set {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		out[bucket] = addrs
	}
	return out
}

// CaptureState snapshots a single tree's trusted state.
func (o *ORAM) CaptureState() (*ShardState, error) {
	ls, err := o.captureLevel()
	if err != nil {
		return nil, err
	}
	return &ShardState{Levels: []LevelState{ls}}, nil
}

// CaptureState snapshots the stack's trusted state: every level, plus the
// eviction-cadence counters under the deferred policy.
func (s *Stack) CaptureState() (*ShardState, error) {
	st := &ShardState{Batch: s.batchState()}
	for i, o := range s.orams {
		ls, err := o.captureLevel()
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i, err)
		}
		st.Levels = append(st.Levels, ls)
	}
	return st, nil
}

// batchState captures the deferred schedule's counters; nil for classic.
func (s *Stack) batchState() *BatchedState {
	if !s.cfg.Deferred() {
		return nil
	}
	return &BatchedState{
		EvictCounter: s.evictCounter,
		SinceEvict:   s.sinceEvict,
		Slots:        s.slots,
		EvictPasses:  s.evictPasses,
		Forced:       s.forced,
	}
}

// recoverLevel rebuilds one ORAM around an existing untrusted store: the
// store is re-hashed into a fresh Merkle tree, the recomputed root is
// compared against the checkpointed one (ErrRootMismatch on any
// difference), and the trusted state is restored verbatim.
func recoverLevel(g Geometry, key crypt.Key, rng *rand.Rand, store BucketStore, ls *LevelState) (*ORAM, error) {
	o, err := newORAMShell(g, key, rng, store)
	if err != nil {
		return nil, err
	}
	tree := newMerkleTree(g, o.store)
	if tree.Root() != ls.Root {
		return nil, ErrRootMismatch
	}
	o.integrity = tree
	if uint64(len(ls.PosDense)) > g.Capacity() {
		return nil, fmt.Errorf("pathoram: checkpointed position map holds %d entries, tree capacity is %d", len(ls.PosDense), g.Capacity())
	}
	o.posmap.flat = slices.Clone(ls.PosDense)
	if len(ls.PosOver) > 0 {
		o.posmap.over = make(map[uint64]uint64, len(ls.PosOver))
		for a, l := range ls.PosOver {
			o.posmap.over[a] = l
		}
	}
	for _, b := range ls.Stash {
		if len(b.Data) != g.BlockBytes {
			return nil, fmt.Errorf("pathoram: checkpointed stash block %#x is %d bytes, want %d", b.Addr, len(b.Data), g.BlockBytes)
		}
		o.stash.Put(Block{Addr: b.Addr, Leaf: b.Leaf, Data: b.Data})
	}
	if ls.StashPeak > o.stash.peak {
		o.stash.peak = ls.StashPeak
	}
	if len(ls.Stale) > 0 {
		o.stale = make(map[uint64]map[uint64]struct{}, len(ls.Stale))
		for bucket, addrs := range ls.Stale {
			set := make(map[uint64]struct{}, len(addrs))
			for _, a := range addrs {
				set[a] = struct{}{}
			}
			o.stale[bucket] = set
		}
	}
	o.Accesses = ls.Accesses
	o.DummyAccesses = ls.DummyAccesses
	o.BucketReads = ls.BucketReads
	o.BucketWrites = ls.BucketWrites
	return o, nil
}

// RecoverStack rebuilds a stack from a captured state, every level's
// untrusted store built by factory (nil means in-RAM — only useful in
// tests). The recovered instance has integrity enabled; EnableIntegrity must
// not be called again. A state captured under a different shape or policy
// than cfg describes is refused.
func RecoverStack(cfg StackConfig, key crypt.Key, rng *rand.Rand, factory StorageFactory, st *ShardState) (*Stack, error) {
	if want := 1 + cfg.Recursion; len(st.Levels) != want {
		return nil, fmt.Errorf("pathoram: checkpoint holds %d levels, stack configured for %d", len(st.Levels), want)
	}
	if (st.Batch != nil) != cfg.Deferred() {
		return nil, fmt.Errorf("pathoram: checkpoint and stack disagree on the fetch policy (checkpoint deferred: %t, stack deferred: %t)", st.Batch != nil, cfg.Deferred())
	}
	s, err := buildStack(cfg, rng, func(level int, g Geometry, rng *rand.Rand) (*ORAM, error) {
		store, err := newStore(factory, level, g)
		if err != nil {
			return nil, err
		}
		return recoverLevel(g, key, rng, store, &st.Levels[level])
	})
	if err != nil {
		return nil, err
	}
	// The stack's own counters always equal the data level's.
	s.Accesses, s.DummyAccesses = s.data.Accesses, s.data.DummyAccesses
	if b := st.Batch; b != nil {
		s.evictCounter, s.sinceEvict, s.slots, s.evictPasses, s.forced = b.EvictCounter, b.SinceEvict, b.Slots, b.EvictPasses, b.Forced
	}
	return s, nil
}
