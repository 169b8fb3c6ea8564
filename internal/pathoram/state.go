package pathoram

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tcoram/internal/crypt"
)

// This file implements trusted-state capture and recovery: everything the
// controller keeps on-chip (the position map, stash contents, tombstones,
// Merkle roots, counters) captured into a ShardState or encoded straight
// into the checkpoint encoding (AppendState, DecodeState), and constructors
// that rebuild a running ORAM stack from a ShardState plus the untrusted
// bucket stores. The server seals the encoding (encrypt+MAC via
// internal/crypt) into its checkpoint records; the split matters because
// the bucket files are untrusted — on recovery the store is re-hashed and
// compared against the sealed Merkle root, and a mismatch refuses service
// (ErrRootMismatch) rather than serving tampered data.
//
// The checkpoint encoding is little-endian and fixed-layout: each field sits
// where the counts before it put it, so encoding is a run of appends into
// one reused buffer and decoding a bounds-checked walk. A stack encodes as
// its level count, then per level the Merkle root, the position-map section
// (here the owner's whole map, a 4-byte label per address the tree can
// hold, and an empty section on every other tree; a padded delta in
// delta.go) and the tail — stash count, block size, then address, leaf and
// payload per stash block; the stash peak; the count of buckets holding
// tombstones, then per such bucket in ascending order its index and its
// one-byte slot mask; the four counters — and last a present flag and the
// deferred policy's five counters.

// ErrRootMismatch is returned by RecoverStack when the
// untrusted store's recomputed Merkle root differs from the checkpointed
// root — the fail-closed answer to offline tampering with the bucket file.
var ErrRootMismatch = errors.New("pathoram: untrusted store does not match checkpointed merkle root")

// errTruncated is every decode failure: a count or field runs past the end
// of the input.
var errTruncated = errors.New("pathoram: checkpoint encoding is truncated or malformed")

var le = binary.LittleEndian

// StashBlockState is one stash-resident block in captured form.
type StashBlockState struct {
	Addr uint64
	Leaf uint64
	Data []byte
}

// StaleMask is one bucket's tombstones in captured form: bit i of Mask means
// slot i of bucket Bucket holds a stale copy.
type StaleMask struct {
	Bucket uint64
	Mask   uint8
}

// LevelTail is the part of a tree's trusted state that every checkpoint,
// full or delta, carries whole: it is O(stash) + O(1), small next to the
// position map.
type LevelTail struct {
	// Stash holds the stash blocks in slot order, so recovery reproduces
	// the exact deterministic eviction behavior of the pre-crash instance.
	Stash     []StashBlockState
	StashPeak int
	// Stale lists the deferred data tree's non-zero tombstone masks in
	// ascending bucket order.
	Stale []StaleMask
	// Counters.
	Accesses      uint64
	DummyAccesses uint64
	BucketReads   uint64
	BucketWrites  uint64
}

// LevelState is the captured trusted state of one ORAM tree.
type LevelState struct {
	// Root is the Merkle root of the untrusted bucket ciphertexts at
	// capture time — the only binding between the sealed checkpoint and
	// the bucket file.
	Root [sha256.Size]byte
	// Pos is the position map of the tree that owns one — a label per
	// address the tree can hold, unassignedLabel marking never-assigned
	// ones — and empty on every other tree.
	Pos []uint32
	LevelTail
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
// the deferred policy's counters. The deepest level's Pos is the on-chip
// position map, and level 0's counters are the stack's.
type ShardState struct {
	Levels []LevelState
	// Batch is non-nil for deferred-policy stacks.
	Batch *BatchedState
}

// errNoIntegrity refuses to capture a tree without a Merkle tree: there
// would be no root to bind the untrusted store to, and recovery could not
// detect tampering.
var errNoIntegrity = errors.New("pathoram: cannot capture state without integrity enabled (no merkle root to checkpoint)")

// captureLevel flushes the tree's cached top into its store and snapshots
// its trusted state. Integrity must be enabled.
func (o *ORAM) captureLevel() (LevelState, error) {
	if o.integrity == nil {
		return LevelState{}, errNoIntegrity
	}
	if err := o.flushTop(); err != nil {
		return LevelState{}, err
	}
	ls := LevelState{
		Root: o.integrity.Root(),
		Pos:  slices.Clone(o.posmap.flat),
		LevelTail: LevelTail{
			Stash:         o.captureStash(),
			StashPeak:     o.stash.peak,
			Accesses:      o.Accesses,
			DummyAccesses: o.DummyAccesses,
			BucketReads:   o.BucketReads,
			BucketWrites:  o.BucketWrites,
		},
	}
	for bucket, mask := range o.stale {
		if mask != 0 {
			ls.Stale = append(ls.Stale, StaleMask{Bucket: uint64(bucket), Mask: mask})
		}
	}
	// A full capture supersedes any delta baseline: the journal restarts
	// empty so the next delta describes changes since this snapshot.
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

// AppendState flushes every level's cached top into its store, then appends
// the stack's complete trusted state — the deepest tree's whole position
// map — in the checkpoint encoding, the same state CaptureState returns, and
// restarts the change journal.
func (s *Stack) AppendState(b []byte) ([]byte, error) {
	if err := s.checkIntegrity(); err != nil {
		return nil, err
	}
	if err := s.flushTop(); err != nil {
		return nil, err
	}
	b = le.AppendUint32(b, uint32(len(s.orams)))
	for _, o := range s.orams {
		root := o.integrity.Root()
		b = append(b, root[:]...)
		b = le.AppendUint32(b, uint32(len(o.posmap.flat)))
		for _, leaf := range o.posmap.flat {
			b = le.AppendUint32(b, leaf)
		}
		b = o.appendTail(b)
		o.posmap.resetJournal()
	}
	return s.appendBatch(b), nil
}

// checkIntegrity requires a Merkle tree on every level before a capture.
func (s *Stack) checkIntegrity() error {
	for i, o := range s.orams {
		if o.integrity == nil {
			return fmt.Errorf("level %d: %w", i, errNoIntegrity)
		}
	}
	return nil
}

// appendTail encodes the level's LevelTail from the live stash, tombstones
// and counters, allocating nothing beyond b's growth.
func (o *ORAM) appendTail(b []byte) []byte {
	b = le.AppendUint32(b, uint32(len(o.stash.blocks)))
	b = le.AppendUint32(b, uint32(o.geom.BlockBytes))
	for i := range o.stash.blocks {
		blk := &o.stash.blocks[i]
		b = le.AppendUint64(le.AppendUint64(b, blk.Addr), blk.Leaf)
		b = append(b, blk.Data...)
	}
	b = le.AppendUint64(b, uint64(o.stash.peak))
	// One scan in bucket order; the count is patched in behind it.
	at, n := len(b), 0
	b = le.AppendUint32(b, 0)
	for bucket, mask := range o.stale {
		if mask != 0 {
			b = append(le.AppendUint64(b, uint64(bucket)), mask)
			n++
		}
	}
	le.PutUint32(b[at:], uint32(n))
	for _, c := range [...]uint64{o.Accesses, o.DummyAccesses, o.BucketReads, o.BucketWrites} {
		b = le.AppendUint64(b, c)
	}
	return b
}

// appendBatch encodes the deferred policy's counters behind a present flag.
func (s *Stack) appendBatch(b []byte) []byte {
	if !s.cfg.Deferred() {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, c := range [...]uint64{s.evictCounter, uint64(s.sinceEvict), s.slots, s.evictPasses, s.forced} {
		b = le.AppendUint64(b, c)
	}
	return b
}

// decoder walks the checkpoint encoding. The first read past the end
// latches err and every later read returns zero values, so a decode
// function checks err once, at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n > len(d.b) {
		d.err = errTruncated
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() uint8 {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if v := d.take(4); v != nil {
		return le.Uint32(v)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return le.Uint64(v)
	}
	return 0
}

// count reads a u32 element count and checks that that many elements of
// size bytes fit in what remains, so a malformed count can never make a
// decoder allocate beyond the input's own size.
func (d *decoder) count(size int) int {
	n := int(d.u32())
	if d.err == nil && n > len(d.b)/size {
		d.err = errTruncated
	}
	if d.err != nil {
		return 0
	}
	return n
}

// DecodeState parses what AppendState wrote, returning the state and the
// input after it. Stash payloads alias b.
func DecodeState(b []byte) (*ShardState, []byte, error) {
	d := &decoder{b: b}
	st := &ShardState{Levels: make([]LevelState, d.count(sha256.Size))}
	for i := range st.Levels {
		ls := &st.Levels[i]
		copy(ls.Root[:], d.take(sha256.Size))
		if n := d.count(LabelBytes); n > 0 {
			ls.Pos = make([]uint32, n)
			for j := range ls.Pos {
				ls.Pos[j] = d.u32()
			}
		}
		ls.LevelTail = d.tail()
	}
	st.Batch = d.batch()
	if d.err != nil {
		return nil, nil, d.err
	}
	return st, d.b, nil
}

// tail decodes what appendTail wrote.
func (d *decoder) tail() LevelTail {
	var t LevelTail
	n, blockBytes := int(d.u32()), int(d.u32())
	if d.err == nil && n > len(d.b)/(16+blockBytes) {
		d.err = errTruncated
	}
	for i := 0; i < n && d.err == nil; i++ {
		addr, leaf := d.u64(), d.u64()
		t.Stash = append(t.Stash, StashBlockState{Addr: addr, Leaf: leaf, Data: d.take(blockBytes)})
	}
	if peak := d.u64(); peak <= math.MaxInt32 {
		t.StashPeak = int(peak)
	} else {
		d.err = errTruncated
	}
	if n := d.count(9); n > 0 {
		t.Stale = make([]StaleMask, n)
		for i := range t.Stale {
			t.Stale[i] = StaleMask{Bucket: d.u64(), Mask: d.u8()}
		}
	}
	t.Accesses, t.DummyAccesses, t.BucketReads, t.BucketWrites = d.u64(), d.u64(), d.u64(), d.u64()
	return t
}

// batch decodes what appendBatch wrote.
func (d *decoder) batch() *BatchedState {
	switch d.u8() {
	case 0:
		return nil
	case 1:
		b := &BatchedState{EvictCounter: d.u64()}
		if since := d.u64(); since <= math.MaxInt32 {
			b.SinceEvict = int(since)
		} else {
			d.err = errTruncated
		}
		b.Slots, b.EvictPasses, b.Forced = d.u64(), d.u64(), d.u64()
		return b
	}
	d.err = errTruncated
	return nil
}

// recoverLevel rebuilds one ORAM around an existing untrusted store: the
// store is re-hashed into a fresh Merkle tree, the recomputed root is
// compared against the checkpointed one (ErrRootMismatch on any
// difference), and the trusted state is restored verbatim once it has been
// checked to fit the tree's shape and role. Every capture flushed the cached
// top first, so the store holds it whole; buildStack decrypts it back into
// the cache once the root has checked out.
func recoverLevel(g Geometry, key crypt.Key, rng *rand.Rand, store BucketStore, ls *LevelState, role treeRole) (*ORAM, error) {
	o, err := newORAMShell(g, key, rng, store, role)
	if err != nil {
		return nil, err
	}
	tree := newMerkleTree(g, o.store)
	if tree.Root() != ls.Root {
		return nil, ErrRootMismatch
	}
	o.integrity = tree
	if len(ls.Pos) != len(o.posmap.flat) {
		return nil, fmt.Errorf("pathoram: checkpointed position map holds %d entries, this tree keeps %d", len(ls.Pos), len(o.posmap.flat))
	}
	copy(o.posmap.flat, ls.Pos)
	for _, b := range ls.Stash {
		// Put appends blindly, so a record that names a block twice or
		// carries one the tree cannot hold is refused here.
		switch {
		case len(b.Data) != g.BlockBytes:
			return nil, fmt.Errorf("pathoram: checkpointed stash block %#x is %d bytes, want %d", b.Addr, len(b.Data), g.BlockBytes)
		case b.Addr >= role.blocks:
			return nil, fmt.Errorf("pathoram: checkpointed stash block %#x is outside a tree of %d addresses", b.Addr, role.blocks)
		case b.Leaf >= g.Leaves():
			return nil, fmt.Errorf("pathoram: checkpointed stash block %#x has leaf %d of a %d-leaf tree", b.Addr, b.Leaf, g.Leaves())
		case o.stash.Get(b.Addr) != nil:
			return nil, fmt.Errorf("pathoram: checkpointed stash lists block %#x twice", b.Addr)
		}
		o.stash.Put(Block{Addr: b.Addr, Leaf: b.Leaf, Data: b.Data})
	}
	if ls.StashPeak > o.stash.peak {
		o.stash.peak = ls.StashPeak
	}
	if len(ls.Stale) > 0 && o.stale == nil {
		return nil, errors.New("pathoram: checkpoint carries tombstones for a tree that keeps none")
	}
	for _, t := range ls.Stale {
		if t.Bucket >= g.Buckets() || t.Mask>>g.Z != 0 {
			return nil, fmt.Errorf("pathoram: checkpointed tombstone mask %#x of bucket %d does not fit a %d-bucket tree with Z = %d", t.Mask, t.Bucket, g.Buckets(), g.Z)
		}
		o.stale[t.Bucket] = t.Mask
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
	s, err := buildStack(cfg, rng, func(level int, g Geometry, rng *rand.Rand, role treeRole) (*ORAM, error) {
		store, err := newStore(factory, level, g)
		if err != nil {
			return nil, err
		}
		return recoverLevel(g, key, rng, store, &st.Levels[level], role)
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
