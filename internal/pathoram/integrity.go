package pathoram

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// ErrIntegrity is returned when a bucket fails Merkle verification,
// indicating the untrusted memory was tampered with (the attack class the
// paper excludes from its threat model and defers to [25], §4.3).
var ErrIntegrity = errors.New("pathoram: integrity check failed")

// merkleTree maintains a hash tree mirroring the ORAM tree. Each node keeps
//
//	digest[idx]  = H(bucket ciphertext)
//	subtree[idx] = H(digest[idx] ‖ subtree[left] ‖ subtree[right])
//
// In hardware only subtree[0] (the root) would live on-chip and the rest in
// untrusted memory, verified along the accessed path; the functional model
// keeps the arrays in trusted state, which detects exactly the same
// tampering (any modified bucket ciphertext fails its digest check on the
// next path read). Updates follow path write-back, which rewrites a path
// leaf first: each rewritten bucket is hashed once (rehash), so a classic
// access costs 3 hashes per stored bucket on its path — a verification on
// the read, then a digest and a subtree hash on the write: 3L for a
// standalone tree of L levels, 3(L−t) for a Stack's tree, whose top t
// levels live in the trusted cache and are rehashed when flushTop writes
// them back.
type merkleTree struct {
	geom    Geometry
	digest  [][sha256.Size]byte
	subtree [][sha256.Size]byte
	hashes  uint64 // SHA-256 evaluations so far (the cost tests pin)
}

func newMerkleTree(g Geometry, store Storage) *merkleTree {
	m := &merkleTree{
		geom:    g,
		digest:  make([][sha256.Size]byte, g.Buckets()),
		subtree: make([][sha256.Size]byte, g.Buckets()),
	}
	for idx := int64(g.Buckets()) - 1; idx >= 0; idx-- {
		m.setDigest(uint64(idx), store.ReadBucket(uint64(idx)))
		m.recomputeSubtree(uint64(idx))
	}
	return m
}

// children returns the child bucket indices of idx, if any.
func (m *merkleTree) children(idx uint64) (left, right uint64, ok bool) {
	left = 2*idx + 1
	right = 2*idx + 2
	ok = right < m.geom.Buckets()
	return
}

func (m *merkleTree) setDigest(idx uint64, ciphertext []byte) {
	m.digest[idx] = sha256.Sum256(ciphertext)
	m.hashes++
}

func (m *merkleTree) recomputeSubtree(idx uint64) {
	h := sha256.New()
	h.Write(m.digest[idx][:])
	if l, r, ok := m.children(idx); ok {
		h.Write(m.subtree[l][:])
		h.Write(m.subtree[r][:])
	}
	h.Sum(m.subtree[idx][:0])
	m.hashes++
}

// Root returns the root hash — the only value hardware must keep on-chip.
func (m *merkleTree) Root() [sha256.Size]byte { return m.subtree[0] }

// verify checks the stored ciphertext of idx against its trusted digest.
func (m *merkleTree) verify(idx uint64, ciphertext []byte) error {
	m.hashes++
	if sha256.Sum256(ciphertext) != m.digest[idx] {
		return fmt.Errorf("%w: bucket %d", ErrIntegrity, idx)
	}
	return nil
}

// rehash records a rewritten bucket: its digest, then its subtree hash from
// its children's. It does not climb: the root is current again only once
// every rewritten bucket is rehashed, deepest first, which is the order
// writePath rewrites a path in — each on-path child was rehashed one step
// earlier and each off-path child is unchanged.
func (m *merkleTree) rehash(idx uint64, ciphertext []byte) {
	m.setDigest(idx, ciphertext)
	m.recomputeSubtree(idx)
}
