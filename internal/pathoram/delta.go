package pathoram

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// This file implements incremental trusted-state capture: instead of
// encoding the whole position map on every checkpoint (O(state), AppendState
// in state.go), a dirty-tracked stack drains its change journals into a
// delta describing only what moved since the previous capture — O(dirty)
// for the position maps, which dominate the full snapshot at scale. Stash
// contents, tombstones, counters and Merkle roots are carried whole in every
// delta: they are O(log N) or O(1) per level, so re-sending them costs
// nothing against the posmap savings and keeps delta application a plain
// overwrite instead of an op log.
//
// A delta's position-map section has a public length. The caller passes the
// most entries one capture window can dirty (the server: one remap per level
// per fetched path, CheckpointEvery × BatchK), every level's section is
// padded to exactly that many entries, and a journal holding more fails the
// capture (ErrDeltaBound) rather than write a longer section. So the sealed
// size of a delta never says how many distinct addresses a window touched.
//
// The protocol is encode/decode/apply: DecodeDelta parses what AppendDelta
// wrote and ApplyDelta folds it into a full ShardState, so a recovery that
// reads a base plus a chain of deltas reconstructs the exact ShardState a
// full capture would have produced at the same point.

// ErrDeltaBound is returned by AppendDelta when a level's journal holds more
// distinct entries than the public bound the delta is padded to.
var ErrDeltaBound = errors.New("pathoram: change journal exceeds the delta's public entry bound")

// errNotTracking is returned by AppendDelta when TrackDirty was never
// called: without an armed journal there is no change set to drain, and
// silently encoding an empty delta would corrupt the checkpoint chain.
var errNotTracking = errors.New("pathoram: delta capture without TrackDirty (dirty tracking not armed)")

// PosEntry is one dirtied position-map assignment inside a delta.
type PosEntry struct {
	Addr uint64
	Leaf uint64
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
	// Bound is the public entry count the encoded section was padded to.
	Bound int
	// LevelTail replaces its ShardState counterpart wholesale, except that
	// the stash peak only ever grows.
	LevelTail
}

// ShardDelta is the incremental counterpart of ShardState: what changed in
// one shard's stack since the previous capture (full or delta).
type ShardDelta struct {
	Levels []LevelDelta
	// Batch is non-nil for deferred-policy stacks (all counters, O(1)).
	Batch *BatchedState
}

// TrackDirty arms dirty tracking on one tree: from now on position-map
// writes are journaled so a delta capture can encode only the change set.
// Idempotent; a subsequent full capture resets (not disarms) the journal.
func (o *ORAM) TrackDirty() { o.posmap.Track() }

// TrackDirty arms dirty tracking on every level of the stack.
func (s *Stack) TrackDirty() {
	for _, o := range s.orams {
		o.TrackDirty()
	}
}

// AppendDelta flushes every level's cached top into its store, then drains
// every level's journal into the delta encoding: per level the Merkle root,
// the position-map section — bound, dense count, overflow count, then
// exactly bound (address, leaf) slots, the dirtied entries in ascending
// address order followed by all-ones filler — and the tail, then the
// deferred policy's counters (the layout in state.go). It allocates nothing
// once the stack's scratch has grown. A journal over bound fails with
// ErrDeltaBound before anything is flushed, reset or appended.
func (s *Stack) AppendDelta(b []byte, bound int) ([]byte, error) {
	if err := s.checkIntegrity(); err != nil {
		return nil, err
	}
	for i, o := range s.orams {
		if !o.posmap.Tracking() {
			return nil, errNotTracking
		}
		if n := len(o.posmap.drainJournal()); n > bound {
			return nil, fmt.Errorf("%w: level %d dirtied %d entries, bound %d", ErrDeltaBound, i, n, bound)
		}
	}
	if err := s.flushTop(); err != nil {
		return nil, err
	}
	b = le.AppendUint32(b, uint32(len(s.orams)))
	for _, o := range s.orams {
		root := o.integrity.Root()
		b = append(b, root[:]...)
		addrs := o.posmap.journal
		dense := 0
		for dense < len(addrs) && addrs[dense] < o.posmap.limit {
			dense++
		}
		b = le.AppendUint32(b, uint32(bound))
		b = le.AppendUint32(b, uint32(dense))
		b = le.AppendUint32(b, uint32(len(addrs)-dense))
		for _, a := range addrs {
			leaf, _ := o.posmap.Get(a)
			b = le.AppendUint64(le.AppendUint64(b, a), leaf)
		}
		for i := len(addrs); i < bound; i++ {
			b = le.AppendUint64(le.AppendUint64(b, ^uint64(0)), ^uint64(0))
		}
		o.posmap.resetJournal()
		b = o.appendTail(b)
	}
	return s.appendBatch(b), nil
}

// DecodeDelta parses what AppendDelta wrote, dropping the filler, and
// returns the delta and the input after it. Stash payloads alias b.
func DecodeDelta(b []byte) (*ShardDelta, []byte, error) {
	d := &decoder{b: b}
	sd := &ShardDelta{Levels: make([]LevelDelta, d.count(sha256.Size))}
	for i := range sd.Levels {
		ld := &sd.Levels[i]
		copy(ld.Root[:], d.take(sha256.Size))
		bound, dense, over := int(d.u32()), int(d.u32()), int(d.u32())
		if d.err == nil && (bound > len(d.b)/16 || dense+over > bound) {
			d.err = errTruncated
		}
		if d.err != nil {
			break
		}
		ld.Bound = bound
		entries := make([]PosEntry, dense+over)
		for j := range entries {
			entries[j] = PosEntry{Addr: d.u64(), Leaf: d.u64()}
		}
		if dense > 0 {
			ld.PosDense = entries[:dense]
		}
		if over > 0 {
			ld.PosOver = entries[dense:]
		}
		d.take(16 * (bound - dense - over))
		ld.LevelTail = d.tail()
	}
	sd.Batch = d.batch()
	if d.err != nil {
		return nil, nil, d.err
	}
	return sd, d.b, nil
}

// ApplyDelta folds a ShardDelta into a full ShardState in place, producing
// the state a full capture would have written at the delta's capture point.
// It is how recovery replays a base + delta chain before rebuilding the
// stack; idempotent, so replaying the same delta twice converges. geoms are
// the stack's level geometries: a dense entry at or past a tree's capacity
// is refused (it could only come from a delta captured under another shape).
func ApplyDelta(st *ShardState, d *ShardDelta, geoms []Geometry) error {
	if len(d.Levels) != len(st.Levels) || len(geoms) != len(st.Levels) {
		return fmt.Errorf("pathoram: delta describes %d levels, base state has %d, geometry %d", len(d.Levels), len(st.Levels), len(geoms))
	}
	if (d.Batch != nil) != (st.Batch != nil) {
		return errors.New("pathoram: delta and base state disagree on the fetch policy")
	}
	for i := range d.Levels {
		ls := &st.Levels[i]
		ld := &d.Levels[i]
		for _, e := range ld.PosDense {
			if e.Addr >= geoms[i].Capacity() {
				return fmt.Errorf("pathoram: delta maps address %d at level %d, capacity %d", e.Addr, i, geoms[i].Capacity())
			}
		}
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
		peak := max(ls.StashPeak, ld.StashPeak)
		ls.LevelTail = ld.LevelTail
		ls.StashPeak = peak
	}
	if d.Batch != nil {
		st.Batch = d.Batch
	}
	return nil
}
