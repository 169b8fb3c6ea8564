package pathoram

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// This file implements incremental trusted-state capture: instead of
// encoding the whole position map on every checkpoint (O(state), AppendState
// in state.go), a dirty-tracked stack drains the change journal of its one
// position map, the deepest tree's, into a delta describing only what moved
// since the previous capture — O(dirty) for the map, which dominates the
// full snapshot at scale. Stash contents, tombstones, counters and Merkle
// roots are carried whole in every delta: they are small next to the map,
// so re-sending them keeps delta application a plain overwrite instead of
// an op log.
//
// A delta's position-map section has a public length. The caller passes the
// most entries one capture window can dirty (the server: one remap per
// fetched path, CheckpointEvery × BatchK), the owner's section is padded to
// exactly that many entries (every other tree's is empty), and a journal
// holding more fails the capture (ErrDeltaBound) rather than write a longer
// section. So the sealed size of a delta never says how many distinct
// addresses a window touched.
//
// The protocol is encode/decode/apply: DecodeDelta parses what AppendDelta
// wrote and ApplyDelta folds it into a full ShardState, so a recovery that
// reads a base plus a chain of deltas reconstructs the exact ShardState a
// full capture would have produced at the same point.

// ErrDeltaBound is returned by AppendDelta when the journal holds more
// distinct entries than the public bound the delta is padded to.
var ErrDeltaBound = errors.New("pathoram: change journal exceeds the delta's public entry bound")

// errNotTracking is returned by AppendDelta when TrackDirty was never
// called: without an armed journal there is no change set to drain, and
// silently encoding an empty delta would corrupt the checkpoint chain.
var errNotTracking = errors.New("pathoram: delta capture without TrackDirty (dirty tracking not armed)")

// PosEntry is one dirtied position-map assignment inside a delta, encoded
// in 8+LabelBytes = 12 bytes.
type PosEntry struct {
	Addr uint64
	Leaf uint32
}

// LevelDelta is the incremental trusted state of one ORAM tree: changed
// position-map entries plus the full (small) stash, tombstone and counter
// state, bound to the untrusted store by the Merkle root at capture time.
type LevelDelta struct {
	Root [sha256.Size]byte
	// Pos holds only the entries dirtied since the last capture, in
	// ascending address order.
	Pos []PosEntry
	// Bound is the public entry count the encoded section was padded to:
	// the capture's bound on the deepest tree, 0 on every other.
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

// TrackDirty arms dirty tracking on the stack's position map: from now on
// its writes are journaled so a delta capture can encode only the change
// set. Idempotent; a subsequent full capture resets (not disarms) the
// journal.
func (s *Stack) TrackDirty() { s.owner().tracking = true }

// owner returns the stack's one position map, the deepest tree's.
func (s *Stack) owner() *positionMap { return &s.orams[len(s.orams)-1].posmap }

// AppendDelta flushes every level's cached top into its store, then drains
// the journal into the delta encoding: per level the Merkle root, the
// position-map section — its bound (bound on the deepest tree, 0 on every
// other), the entry count, then exactly that bound of 12-byte (address,
// label) slots, the dirtied entries in ascending address order followed by
// all-ones filler — and the tail, then the deferred policy's counters (the
// layout in state.go). It allocates nothing once the stack's scratch has
// grown. A journal over bound fails with ErrDeltaBound before anything is
// flushed, reset or appended.
func (s *Stack) AppendDelta(b []byte, bound int) ([]byte, error) {
	if err := s.checkIntegrity(); err != nil {
		return nil, err
	}
	if !s.owner().tracking {
		return nil, errNotTracking
	}
	if n := len(s.owner().drainJournal()); n > bound {
		return nil, fmt.Errorf("%w: the position map dirtied %d entries, bound %d", ErrDeltaBound, n, bound)
	}
	if err := s.flushTop(); err != nil {
		return nil, err
	}
	b = le.AppendUint32(b, uint32(len(s.orams)))
	for _, o := range s.orams {
		root := o.integrity.Root()
		b = append(b, root[:]...)
		pm, slots := &o.posmap, 0
		if pm.flat != nil {
			slots = bound
		}
		b = le.AppendUint32(le.AppendUint32(b, uint32(slots)), uint32(len(pm.journal)))
		for _, a := range pm.journal {
			b = le.AppendUint32(le.AppendUint64(b, a), pm.flat[a])
		}
		for i := len(pm.journal); i < slots; i++ {
			b = le.AppendUint32(le.AppendUint64(b, ^uint64(0)), ^uint32(0))
		}
		pm.resetJournal()
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
		bound, n := int(d.u32()), int(d.u32())
		if d.err == nil && (bound > len(d.b)/12 || n > bound) {
			d.err = errTruncated
		}
		if d.err != nil {
			break
		}
		ld.Bound = bound
		if n > 0 {
			ld.Pos = make([]PosEntry, n)
			for j := range ld.Pos {
				ld.Pos[j] = PosEntry{Addr: d.u64(), Leaf: d.u32()}
			}
		}
		d.take(12 * (bound - n))
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
// stack; idempotent, so replaying the same delta twice converges. An entry
// outside the base's map for its level is refused (it could only come from
// a delta captured under another shape).
func ApplyDelta(st *ShardState, d *ShardDelta) error {
	if len(d.Levels) != len(st.Levels) {
		return fmt.Errorf("pathoram: delta describes %d levels, base state has %d", len(d.Levels), len(st.Levels))
	}
	if (d.Batch != nil) != (st.Batch != nil) {
		return errors.New("pathoram: delta and base state disagree on the fetch policy")
	}
	for i := range d.Levels {
		ls := &st.Levels[i]
		ld := &d.Levels[i]
		for _, e := range ld.Pos {
			if e.Addr >= uint64(len(ls.Pos)) {
				return fmt.Errorf("pathoram: delta maps address %d at level %d, whose map holds %d entries", e.Addr, i, len(ls.Pos))
			}
		}
		ls.Root = ld.Root
		for _, e := range ld.Pos {
			ls.Pos[e.Addr] = e.Leaf
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
