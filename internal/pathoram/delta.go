package pathoram

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// This file implements incremental trusted-state capture: instead of
// serializing the whole position map on every checkpoint (O(state), the
// CaptureState path in state.go), a dirty-tracked stack drains its change
// journals into a ShardDelta describing only what moved since the previous
// capture — O(dirty) for the position maps, which dominate the full
// snapshot at scale. Stash contents, tombstones, counters and Merkle roots
// are carried whole in every delta: they are O(log N) or O(1) per level, so
// re-sending them costs nothing against the posmap savings and keeps delta
// application a plain overwrite instead of an op log.
//
// The protocol is capture/apply: ApplyDelta folds a ShardDelta into a full
// ShardState, so a recovery that reads base + delta chain reconstructs the
// exact ShardState a full checkpoint would have written at the same point.

// PosEntry is one dirtied position-map assignment inside a delta.
type PosEntry struct {
	Addr uint64
	Leaf uint64
}

// OnChipEntry is one entry of ShardDelta.OnChip.
type OnChipEntry struct {
	Index uint64
	Label uint32
}

// LevelDelta is the incremental trusted state of one ORAM tree: changed
// position-map entries plus the full (small) stash, tombstone and counter
// state, bound to the untrusted store by the Merkle root at capture time.
type LevelDelta struct {
	Root [sha256.Size]byte
	// PosDense and PosOver hold only the entries dirtied since the last
	// capture, split the same way the full snapshot splits them.
	PosDense []PosEntry
	PosOver  []PosEntry
	// Stash, StashPeak, Stale and the counters replace their ShardState
	// counterparts wholesale (they are small; see file comment).
	Stash         []StashBlockState
	StashPeak     int
	Stale         map[uint64][]uint64
	Accesses      uint64
	DummyAccesses uint64
	BucketReads   uint64
	BucketWrites  uint64
}

// ShardDelta is the incremental counterpart of ShardState: what changed in
// one shard's stack since the previous capture (full or delta).
type ShardDelta struct {
	Levels []LevelDelta
	// OnChip, StackAccesses and StackDummies: see ShardState — carried by
	// older chain elements, redundant with Levels, never written, ignored.
	OnChip        []OnChipEntry
	StackAccesses uint64
	StackDummies  uint64
	// Batch is non-nil for deferred-policy stacks (all counters, O(1)).
	Batch *BatchedState
}

// errNotTracking is returned by CaptureDelta when TrackDirty was never
// called: without an armed journal there is no change set to drain, and
// silently returning an empty delta would corrupt the checkpoint chain.
var errNotTracking = errors.New("pathoram: CaptureDelta without TrackDirty (dirty tracking not armed)")

// TrackDirty arms dirty tracking on one tree: from now on position-map
// writes are journaled so CaptureDelta can serialize only the change set.
// Idempotent; a subsequent CaptureState resets (not disarms) the journal.
func (o *ORAM) TrackDirty() { o.posmap.Track() }

// TrackDirty arms dirty tracking on every level of the stack.
func (s *Stack) TrackDirty() {
	for _, o := range s.orams {
		o.TrackDirty()
	}
}

// captureLevelDelta drains one ORAM's journal into a LevelDelta. Like
// captureLevel it requires integrity (the root is the binding to the
// untrusted store) and additionally requires an armed journal.
func (o *ORAM) captureLevelDelta() (LevelDelta, error) {
	if o.integrity == nil {
		return LevelDelta{}, errors.New("pathoram: cannot capture delta without integrity enabled (no merkle root to checkpoint)")
	}
	if !o.posmap.Tracking() {
		return LevelDelta{}, errNotTracking
	}
	ld := LevelDelta{
		Root:          o.integrity.Root(),
		StashPeak:     o.stash.peak,
		Accesses:      o.Accesses,
		DummyAccesses: o.DummyAccesses,
		BucketReads:   o.BucketReads,
		BucketWrites:  o.BucketWrites,
	}
	for _, addr := range o.posmap.drainJournal() {
		leaf, ok := o.posmap.Get(addr)
		if !ok {
			// Journaled but unassigned cannot happen (Set always assigns);
			// skip defensively rather than persist a bogus entry.
			continue
		}
		e := PosEntry{Addr: addr, Leaf: leaf}
		if addr < o.posmap.limit {
			ld.PosDense = append(ld.PosDense, e)
		} else {
			ld.PosOver = append(ld.PosOver, e)
		}
	}
	ld.Stash = o.captureStash()
	ld.Stale = o.captureStale()
	return ld, nil
}

// CaptureDelta drains a single tree's change journal into a ShardDelta.
func (o *ORAM) CaptureDelta() (*ShardDelta, error) {
	ld, err := o.captureLevelDelta()
	if err != nil {
		return nil, err
	}
	return &ShardDelta{Levels: []LevelDelta{ld}}, nil
}

// CaptureDelta drains every level's journal, plus the eviction-cadence
// counters under the deferred policy.
func (s *Stack) CaptureDelta() (*ShardDelta, error) {
	d := &ShardDelta{Batch: s.batchState()}
	for i, o := range s.orams {
		ld, err := o.captureLevelDelta()
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", i, err)
		}
		d.Levels = append(d.Levels, ld)
	}
	return d, nil
}

// ApplyDelta folds a ShardDelta into a full ShardState in place, producing
// the state a full capture would have written at the delta's capture point.
// It is how recovery replays a base + delta chain before rebuilding the
// stack; idempotent, so replaying the same delta twice converges.
func ApplyDelta(st *ShardState, d *ShardDelta) error {
	if len(d.Levels) != len(st.Levels) {
		return fmt.Errorf("pathoram: delta describes %d levels, base state has %d", len(d.Levels), len(st.Levels))
	}
	for i := range d.Levels {
		ls := &st.Levels[i]
		ld := &d.Levels[i]
		ls.Root = ld.Root
		for _, e := range ld.PosDense {
			for uint64(len(ls.PosDense)) <= e.Addr {
				ls.PosDense = append(ls.PosDense, unknownLeaf)
			}
			ls.PosDense[e.Addr] = e.Leaf
		}
		if len(ld.PosOver) > 0 && ls.PosOver == nil {
			ls.PosOver = make(map[uint64]uint64, len(ld.PosOver))
		}
		for _, e := range ld.PosOver {
			ls.PosOver[e.Addr] = e.Leaf
		}
		ls.Stash = ld.Stash
		if ld.StashPeak > ls.StashPeak {
			ls.StashPeak = ld.StashPeak
		}
		ls.Stale = ld.Stale
		ls.Accesses = ld.Accesses
		ls.DummyAccesses = ld.DummyAccesses
		ls.BucketReads = ld.BucketReads
		ls.BucketWrites = ld.BucketWrites
	}
	if d.Batch != nil {
		if st.Batch == nil {
			return errors.New("pathoram: delta carries batched-mode state, base state does not")
		}
		st.Batch = d.Batch
	}
	return nil
}
