package pathoram

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	"tcoram/internal/crypt"
)

// Op distinguishes reads from writes at the ORAM interface.
type Op uint8

const (
	// OpRead returns the current contents of a block.
	OpRead Op = iota
	// OpWrite replaces the contents of a block.
	OpWrite
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// BusEvent records one bucket transfer as seen on the memory bus. The
// sequence of BusEvents for any access — real or dummy — is structurally
// identical (same bucket sizes, a full path read then a full path write),
// which is what makes dummy accesses indistinguishable (§1.1.2, §3.1).
type BusEvent struct {
	Bucket uint64
	Write  bool
}

// ORAM is one tree level of a functional Path ORAM: a bucket tree and its
// stash, plus the in-controller position map of its blocks when the tree
// owns its labels. A Stack composes these into the paper's recursion, where
// only the deepest tree keeps a map; on its own an ORAM is a complete
// single-level Path ORAM (what the adversary demos and the per-layer probes
// drive).
//
// The access hot path is allocation-free in steady state: buckets are
// decrypted into a reused plaintext scratch buffer, stash payloads are
// recycled through a free list, write-back encrypts directly into the
// storage arena, and the position map is a flat slice.
//
// A tree built by a Stack also keeps its top levels as plaintext in trusted
// memory (cacheTop): an access reads and rewrites only the path below them
// in the untrusted store, and the cached buckets reach the store only when a
// capture flushes them (flushTop).
type ORAM struct {
	geom    Geometry
	store   BucketStore
	cipher  *crypt.Cipher
	stash   *Stash
	posmap  positionMap // empty unless the tree owns its labels
	rng     *rand.Rand
	pathBuf []uint64
	ptBuf   []byte // bucket plaintext scratch (decrypt target, encode source)
	// fresh is the immutable payload a first-touch block starts from: zeroes
	// for a data tree (a never-written block reads zero), all-0xFF for a
	// position-map tree (every label in it reads unassignedLabel).
	fresh []byte
	plan  EvictPlan

	integrity *merkleTree // optional integrity extension ([25])

	// top holds the plaintext of buckets 0..2^topLevels−2, the tree's top
	// topLevels levels, in bucket order; topDirty has bit idx set for every
	// cached bucket rewritten since the last flushTop. Until that flush the
	// store keeps an older ciphertext of each dirty bucket, and the Merkle
	// subtree hashes of the cached levels describe that older store.
	topLevels int
	top       []byte
	topDirty  uint64

	// stale marks tree copies of blocks whose authoritative version lives in
	// the stash because a deferred-policy fetch extracted them without
	// rewriting the path: bit i of stale[b] means slot i of bucket b is
	// stale, so Z is at most 8. One byte per bucket, allocated whole with
	// the tree; nil on every tree that is only ever read-and-rewritten (the
	// classic policy, and the position-map trees of any stack). writePath
	// zeroes a bucket's byte whenever it rewrites that bucket, since the
	// rewrite either re-evicts the fresh copy or replaces the slot. See
	// fetchPath.
	stale []uint8

	// Stats.
	Accesses      uint64
	DummyAccesses uint64
	BucketReads   uint64     // buckets fetched from untrusted storage by accesses
	BucketWrites  uint64     // buckets written back to untrusted storage by accesses
	BusTrace      []BusEvent // populated only when TraceBus is true; flushTop's writes included
	TraceBus      bool
}

// NewORAM builds and initializes a functional ORAM: every bucket is written
// once with an encryption of an all-dummy bucket, so the adversary-visible
// memory is fully defined before the first access. rng drives leaf
// remapping and must be cryptographically strong in a real deployment; a
// seeded PRNG keeps tests and experiments deterministic.
func NewORAM(g Geometry, key crypt.Key, rng *rand.Rand) (*ORAM, error) {
	return NewORAMOn(g, key, rng, nil)
}

// NewORAMOn is NewORAM over a caller-supplied untrusted store (nil means a
// fresh in-RAM ByteStorage). The store's prior contents are overwritten by
// initialization; recovery from an existing store goes through RecoverStack.
func NewORAMOn(g Geometry, key crypt.Key, rng *rand.Rand, store BucketStore) (*ORAM, error) {
	return newORAM(g, key, rng, store, treeRole{owner: true})
}

// treeRole names the trusted state a tree keeps beside its stash.
type treeRole struct {
	// owner: the tree holds its own position map — a standalone ORAM, or
	// the deepest tree of a Stack.
	owner bool
	// deferred: the tree is fetched without rewriting, so it keeps
	// tombstones — the data tree of a deferred Stack.
	deferred bool
}

// newORAM is NewORAMOn for a tree of the given role.
func newORAM(g Geometry, key crypt.Key, rng *rand.Rand, store BucketStore, role treeRole) (*ORAM, error) {
	o, err := newORAMShell(g, key, rng, store, role)
	if err != nil {
		return nil, err
	}
	empty := g.encodeBucket(nil)
	for i := uint64(0); i < g.Buckets(); i++ {
		if err := o.cipher.EncryptTo(o.store.BucketSlice(i), empty); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// newORAMShell builds an ORAM's trusted state around a store without
// touching the store's contents — the shared half of NewORAMOn (which then
// initializes every bucket) and recoverLevel (which restores state and
// verifies the existing buckets instead).
func newORAMShell(g Geometry, key crypt.Key, rng *rand.Rand, store BucketStore, role treeRole) (*ORAM, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if store == nil {
		var err error
		store, err = NewByteStorage(g)
		if err != nil {
			return nil, err
		}
	}
	o := &ORAM{
		geom:   g,
		store:  store,
		cipher: crypt.NewCipher(key, randReader{rng}),
		stash:  NewStash(),
		rng:    rng,
		ptBuf:  make([]byte, g.BucketPlainBytes()),
		fresh:  make([]byte, g.BlockBytes),
	}
	if role.owner {
		o.posmap = newPositionMap(g.Capacity())
	}
	if role.deferred {
		o.stale = make([]uint8, g.Buckets())
	}
	// One path read alone can bring Z·L blocks into the stash; room for
	// twice that covers the peaks the presets reach, so an access that sets
	// a new stash high-water mark does not allocate either.
	o.stash.reserve(2*g.Z*g.Levels, g.BlockBytes)
	return o, nil
}

// randReader adapts a math/rand source to io.Reader. A tree's Cipher reads
// it once, for the 16-byte IV of its write keystream, when it encrypts its
// first bucket; every later nonce comes from that stream's counter, so
// encryption draws nothing more from the leaf rng, and identically seeded
// runs stay byte-identical.
type randReader struct{ r *rand.Rand }

func (rr randReader) Read(p []byte) (int, error) {
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rr.r.Uint64())
	}
	if rem := len(p) % 8; rem != 0 {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], rr.r.Uint64())
		copy(p[len(p)-rem:], tmp[:rem])
	}
	return len(p), nil
}

// Geometry returns the tree shape.
func (o *ORAM) Geometry() Geometry { return o.geom }

// Storage exposes the untrusted memory (the adversary's vantage point).
func (o *ORAM) Storage() BucketStore { return o.store }

// StorageStats reports the untrusted store's cache and file-IO counters.
func (o *ORAM) StorageStats() StorageStats { return o.store.Stats() }

// StashOccupancy returns current and peak stash sizes.
func (o *ORAM) StashOccupancy() (cur, peak int) {
	return o.stash.Len(), o.stash.MaxOccupancy()
}

// EnableIntegrity attaches a Merkle tree over the bucket ciphertexts,
// implementing the integrity-verification extension the paper defers to
// [25] (§4.3). Must be called before any accesses.
func (o *ORAM) EnableIntegrity() {
	if o.Accesses != 0 || o.DummyAccesses != 0 {
		panic("pathoram: EnableIntegrity must precede all accesses")
	}
	o.integrity = newMerkleTree(o.geom, o.store)
}

// maxTopLevels caps the levels a Stack's tree keeps in trusted memory:
// 2^6−1 = 63 buckets, so one uint64 holds the dirty bits, and 13.6 KiB of
// plaintext for a 64-B-block tree.
const maxTopLevels = 6

// topLevelsFor is the number of top levels a Stack caches for geometry g,
// min(6, L−1): a public function of the shape, like Z. At least the leaf
// level always stays in the untrusted store.
func topLevelsFor(g Geometry) int { return min(maxTopLevels, g.Levels-1) }

// cacheTop moves the top levels of the tree into trusted memory, decrypting
// their current ciphertexts from the store (set-up buckets for a fresh tree,
// the root-checked store for a recovered one). It allocates the whole cache
// here, so accesses never do.
func (o *ORAM) cacheTop(levels int) error {
	n := uint64(1)<<levels - 1
	pb := o.geom.BucketPlainBytes()
	o.topLevels, o.top, o.topDirty = levels, make([]byte, int(n)*pb), 0
	for idx := uint64(0); idx < n; idx++ {
		if err := o.cipher.DecryptTo(o.topBucket(idx), o.store.ReadBucket(idx)); err != nil {
			return err
		}
	}
	return nil
}

// cached reports whether bucket idx lives in the trusted top cache.
func (o *ORAM) cached(idx uint64) bool { return idx < uint64(1)<<o.topLevels-1 }

// topBucket returns cached bucket idx's plaintext, in place.
func (o *ORAM) topBucket(idx uint64) []byte {
	pb := uint64(o.geom.BucketPlainBytes())
	return o.top[idx*pb : (idx+1)*pb : (idx+1)*pb]
}

// flushTop writes every cached bucket rewritten since the last flush to the
// store, deepest first: each is encrypted into its store slot and, with
// integrity on, rehashed, so that once the root is rehashed the Merkle root
// covers the store's full contents again. The set of buckets written is the
// level-<t ancestors of the paths written since the last flush — a function
// of the public paths. Flushes do not count as BucketWrites: they belong to
// captures, not to slots.
func (o *ORAM) flushTop() error {
	for o.topDirty != 0 {
		idx := uint64(63 - bits.LeadingZeros64(o.topDirty))
		ct := o.store.BucketSlice(idx)
		if err := o.cipher.EncryptTo(ct, o.topBucket(idx)); err != nil {
			return err
		}
		if o.integrity != nil {
			o.integrity.rehash(idx, ct)
		}
		o.topDirty &^= 1 << idx
		if o.TraceBus {
			o.BusTrace = append(o.BusTrace, BusEvent{Bucket: idx, Write: true})
		}
	}
	return nil
}

// PositionOf returns the leaf currently assigned to addr and whether the
// block has ever been written (test hook for the path invariant). A tree
// without a position map reports every address unassigned.
func (o *ORAM) PositionOf(addr uint64) (uint64, bool) {
	if addr >= uint64(len(o.posmap.flat)) {
		return 0, false
	}
	return o.posmap.Get(addr)
}

// randomLeaf samples a uniformly random leaf.
func (o *ORAM) randomLeaf() uint64 {
	return uint64(o.rng.Int63n(int64(o.geom.Leaves())))
}

// Access performs one Path ORAM access: read the path for addr's current
// leaf, remap addr to a fresh random leaf, serve the request from the
// stash, and greedily write the path back. For OpRead, the returned slice
// is the block payload (zeroes if never written). For OpWrite, data must be
// exactly BlockBytes long.
func (o *ORAM) Access(op Op, addr uint64, data []byte) ([]byte, error) {
	if op == OpWrite && len(data) != o.geom.BlockBytes {
		return nil, fmt.Errorf("pathoram: write payload is %d bytes, want %d", len(data), o.geom.BlockBytes)
	}
	var out []byte
	err := o.Update(addr, func(buf []byte) {
		switch op {
		case OpWrite:
			copy(buf, data)
		case OpRead:
			out = make([]byte, o.geom.BlockBytes)
			copy(out, buf)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Update performs one Path ORAM access that applies fn to the block's
// payload while it sits in the stash: a read-modify-write in a single path
// read/write. fn may inspect the current contents (zeroes if never written)
// and mutate them in place; it must not retain the slice past the call. The
// server's request coalescing depends on this — a batch of queued reads and
// writes to one address collapses into one indistinguishable access. addr
// must be below the tree's capacity; a tree without a position map refuses
// every address.
func (o *ORAM) Update(addr uint64, fn func(data []byte)) error {
	if addr >= uint64(len(o.posmap.flat)) {
		return fmt.Errorf("pathoram: address %#x out of range (%d mapped blocks)", addr, len(o.posmap.flat))
	}
	leaf, known := o.posmap.Get(addr)
	if !known {
		leaf = o.randomLeaf()
	}
	newLeaf := o.randomLeaf()
	o.posmap.Set(addr, newLeaf)
	return o.accessPath(addr, leaf, newLeaf, fn)
}

// accessAt is Update for a tree whose position map lives elsewhere: the
// caller (the level above in a Stack) supplies the block's current leaf
// (unassignedLabel for first touch) and its next leaf.
func (o *ORAM) accessAt(addr uint64, curLeaf uint32, newLeaf uint64, fn func(data []byte)) error {
	leaf := uint64(curLeaf)
	if curLeaf == unassignedLabel {
		leaf = o.randomLeaf()
	}
	if leaf >= o.geom.Leaves() {
		return fmt.Errorf("pathoram: leaf %d out of range", leaf)
	}
	return o.accessPath(addr, leaf, newLeaf, fn)
}

// accessPath is the classic access: read the path to leaf, apply fn to the
// block in the stash, rewrite the same path. The remap to newLeaf happens
// before the write-back so the fetched block re-enters the tree under its
// new, independent leaf — the critical security step (§3.1) — and fn runs
// before it too, so the mutation and the remap land atomically. The caller
// has already recorded newLeaf wherever the block's label lives.
func (o *ORAM) accessPath(addr, leaf, newLeaf uint64, fn func(data []byte)) error {
	if err := o.readPath(leaf); err != nil {
		return err
	}
	blk := o.stash.Get(addr)
	if blk == nil {
		blk = o.stash.Put(Block{Addr: addr, Leaf: newLeaf, Data: o.fresh})
	}
	blk.Leaf = newLeaf
	if fn != nil {
		fn(blk.Data)
	}
	if err := o.writePath(leaf); err != nil {
		return err
	}
	o.Accesses++
	return nil
}

// DummyAccess reads and rewrites the path to a uniformly random leaf without
// touching any block — the indistinguishable "fixed program address" access
// of §1.1.2. The bus trace it produces has the same shape as a real access.
func (o *ORAM) DummyAccess() error {
	leaf := o.randomLeaf()
	if err := o.readPath(leaf); err != nil {
		return err
	}
	if err := o.writePath(leaf); err != nil {
		return err
	}
	o.DummyAccesses++
	return nil
}

// openBucket returns bucket idx's plaintext: a cached bucket's slice of the
// top cache, or else the bucket fetched from the untrusted store, verified
// when integrity is on, and decrypted into the reused plaintext scratch — no
// per-bucket allocation either way.
func (o *ORAM) openBucket(idx uint64) ([]byte, error) {
	if o.cached(idx) {
		return o.topBucket(idx), nil
	}
	ct := o.store.ReadBucket(idx)
	if o.integrity != nil {
		if err := o.integrity.verify(idx, ct); err != nil {
			return nil, err
		}
	}
	if err := o.cipher.DecryptTo(o.ptBuf, ct); err != nil {
		return nil, err
	}
	o.BucketReads++
	if o.TraceBus {
		o.BusTrace = append(o.BusTrace, BusEvent{Bucket: idx, Write: false})
	}
	return o.ptBuf, nil
}

// readPath moves every live block on the path to leaf into the stash
// (copied into stash-owned buffers, no per-block allocation), staging the
// path for writePath. On a tree with deferred fetches a path can hold a
// tombstoned copy, or a copy of a block the stash already carries fresher;
// both stay behind.
func (o *ORAM) readPath(leaf uint64) error {
	o.pathBuf = o.geom.PathIndices(o.pathBuf[:0], leaf)
	slotBytes := BlockHeaderBytes + o.geom.BlockBytes
	for _, idx := range o.pathBuf {
		pt, err := o.openBucket(idx)
		if err != nil {
			return err
		}
		for i := 0; i < o.geom.Z; i++ {
			off := i * slotBytes
			addr, blkLeaf := unpackHeader(pt[off:])
			if addr == DummyAddr || (o.stale != nil && (o.stale[idx]>>i&1 != 0 || o.stash.Get(addr) != nil)) {
				continue
			}
			o.stash.Put(Block{Addr: addr, Leaf: blkLeaf, Data: pt[off+BlockHeaderBytes : off+slotBytes]})
		}
	}
	return nil
}

// fetchPath is the read half of a deferred-policy access: open every bucket
// on the path to leaf, extract only the target block into the stash, and
// leave the path unwritten. The slot the tree copy came from is tombstoned
// in o.stale so later path reads ignore it until some write-back overwrites
// its bucket — without the tombstone, a stale copy left in the tree could
// resurrect old data after the fresh stash copy is evicted elsewhere.
// target == DummyAddr extracts nothing (a dummy fetch, identical on the
// bus) and returns a nil block; otherwise the target's stash block is
// returned, valid until the stash is next changed.
func (o *ORAM) fetchPath(leaf, target, newLeaf uint64) (*Block, error) {
	o.pathBuf = o.geom.PathIndices(o.pathBuf[:0], leaf)
	slotBytes := BlockHeaderBytes + o.geom.BlockBytes
	var blk *Block
	if target != DummyAddr {
		blk = o.stash.Get(target)
	}
	want := target != DummyAddr && blk == nil
	for _, idx := range o.pathBuf {
		pt, err := o.openBucket(idx)
		if err != nil {
			return nil, err
		}
		for i := 0; want && i < o.geom.Z; i++ {
			off := i * slotBytes
			if addr, _ := unpackHeader(pt[off:]); addr == target && o.stale[idx]>>i&1 == 0 {
				blk = o.stash.Put(Block{Addr: target, Leaf: newLeaf, Data: pt[off+BlockHeaderBytes : off+slotBytes]})
				o.stale[idx] |= 1 << i
				want = false
			}
		}
	}
	if target == DummyAddr {
		return nil, nil
	}
	if blk == nil {
		blk = o.stash.Put(Block{Addr: target, Leaf: newLeaf, Data: o.fresh})
	}
	blk.Leaf = newLeaf
	return blk, nil
}

// writePath re-encrypts the path to leaf, evicting stash blocks greedily
// from the leaf level upward. Eviction is planned in a single stash scan
// (grouped by deepest eligible level) and each bucket is encoded into the
// plaintext scratch and encrypted straight into the storage arena — or, on
// a cached level, encoded straight into the top cache and marked dirty.
func (o *ORAM) writePath(leaf uint64) error {
	o.pathBuf = o.geom.PathIndices(o.pathBuf[:0], leaf)
	o.stash.PlanPathEviction(o.geom, leaf, o.geom.Z, &o.plan)
	for level := o.geom.Levels - 1; level >= 0; level-- {
		idx := o.pathBuf[level]
		if o.cached(idx) {
			o.encodePlannedBucket(o.topBucket(idx), level)
			o.topDirty |= 1 << idx
		} else if err := o.storeBucket(idx, level); err != nil {
			return err
		}
		if o.stale != nil {
			// The rewrite replaced every slot in this bucket; any
			// tombstones it carried are now vacuous.
			o.stale[idx] = 0
		}
	}
	o.stash.RemovePlanned(&o.plan)
	return nil
}

// storeBucket encodes the planned bucket of level into the plaintext
// scratch and encrypts it straight into store slot idx.
func (o *ORAM) storeBucket(idx uint64, level int) error {
	o.encodePlannedBucket(o.ptBuf, level)
	ct := o.store.BucketSlice(idx)
	if err := o.cipher.EncryptTo(ct, o.ptBuf); err != nil {
		return err
	}
	if o.integrity != nil {
		// Leaf first, so one hash per bucket keeps every stored bucket's
		// subtree hash current; flushTop brings the cached top's along.
		o.integrity.rehash(idx, ct)
	}
	o.BucketWrites++
	if o.TraceBus {
		o.BusTrace = append(o.BusTrace, BusEvent{Bucket: idx, Write: true})
	}
	return nil
}

// encodePlannedBucket packs the blocks the eviction plan assigned to level
// into dst, a bucket plaintext, padding the remaining slots with dummies.
func (o *ORAM) encodePlannedBucket(dst []byte, level int) {
	sel := o.plan.LevelBlocks(level)
	slot := dst
	for i := 0; i < o.geom.Z; i++ {
		if i < len(sel) {
			b := o.stash.BlockAt(sel[i])
			packHeader(slot, b.Addr, b.Leaf)
			copy(slot[BlockHeaderBytes:BlockHeaderBytes+o.geom.BlockBytes], b.Data)
		} else {
			packHeader(slot, DummyAddr, 0)
			clear(slot[BlockHeaderBytes : BlockHeaderBytes+o.geom.BlockBytes])
		}
		slot = slot[BlockHeaderBytes+o.geom.BlockBytes:]
	}
}

// CheckInvariant verifies Path ORAM's core invariant for every live block:
// the block is either in the stash or stored on the path from the root to
// its leaf, never both, and never twice. A tree that owns its position map
// is also checked against it: every mapped block is live under its mapped
// leaf, and every live block is mapped. (A Stack checks its other trees
// against the labels stored in the tree below.) It is O(tree) and intended
// for tests.
func (o *ORAM) CheckInvariant() error {
	located, err := o.live()
	if err != nil {
		return err
	}
	return o.checkMap(located)
}

// checkMap checks the live blocks of a tree against its own position map,
// if it has one.
func (o *ORAM) checkMap(located map[uint64]Block) error {
	if o.posmap.flat == nil {
		return nil
	}
	mapped := 0
	for addr, leaf := range o.posmap.flat {
		if leaf == unknownLeaf {
			continue
		}
		mapped++
		b, ok := located[uint64(addr)]
		if !ok {
			return fmt.Errorf("pathoram: mapped block %#x in neither stash nor tree", addr)
		}
		if b.Leaf != leaf {
			return fmt.Errorf("pathoram: block %#x carries leaf %d, its position map says %d", addr, b.Leaf, leaf)
		}
	}
	if mapped != len(located) {
		return fmt.Errorf("pathoram: %d live blocks, %d mapped", len(located), mapped)
	}
	return nil
}

// live decrypts the whole tree and returns every live block — each tree
// copy not tombstoned, and each stash block — by address, after checking
// that no block is live twice and that each tree copy lies on the path to
// the leaf in its own header. Test support, like CheckInvariant.
func (o *ORAM) live() (map[uint64]Block, error) {
	located := make(map[uint64]Block)
	slotBytes := BlockHeaderBytes + o.geom.BlockBytes
	for idx := uint64(0); idx < o.geom.Buckets(); idx++ {
		// The cached levels come from the cache.
		var plain []byte
		var err error
		if o.cached(idx) {
			plain = o.topBucket(idx)
		} else if plain, err = o.cipher.Decrypt(o.store.ReadBucket(idx)); err != nil {
			return nil, err
		}
		level := bits.Len64(idx+1) - 1
		for i := 0; i < o.geom.Z; i++ {
			slot := plain[i*slotBytes : (i+1)*slotBytes]
			addr, leaf := unpackHeader(slot)
			if addr == DummyAddr || o.stale != nil && o.stale[idx]>>i&1 != 0 {
				continue // empty, or a superseded copy awaiting overwrite
			}
			if _, dup := located[addr]; dup {
				return nil, fmt.Errorf("pathoram: block %#x live twice, again in bucket %d", addr, idx)
			}
			if leaf >= o.geom.Leaves() || o.geom.NodeIndex(leaf, level) != idx {
				return nil, fmt.Errorf("pathoram: block %#x in bucket %d is off the path to its leaf %d", addr, idx, leaf)
			}
			located[addr] = Block{Addr: addr, Leaf: leaf, Data: slot[BlockHeaderBytes:]}
		}
	}
	for _, b := range o.stash.blocks {
		if _, dup := located[b.Addr]; dup {
			return nil, fmt.Errorf("pathoram: block %#x live in both stash and tree", b.Addr)
		}
		located[b.Addr] = b
	}
	return located, nil
}
