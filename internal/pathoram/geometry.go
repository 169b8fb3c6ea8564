// Package pathoram implements Path ORAM (Stefanov et al., CCS 2013) as used
// by the paper's secure processor (§3): an on-chip controller managing
// external memory as a binary tree of encrypted buckets, with a stash, a
// recursive position map, and indistinguishable dummy accesses.
//
// Two complementary views are provided:
//
//   - a functional ORAM (ORAM, Recursive) that actually stores and moves
//     encrypted bytes, used by the examples, the adversary's root-bucket
//     probing attack (§3.2), and the security property tests; and
//   - a timing view (Geometry, PathBursts, EstimateAccessLatency) that
//     costs one access against the DRAM model, reproducing the paper's
//     "1488 cycles, 24.2 KB per access" characterization (§9.1.2).
package pathoram

import (
	"fmt"

	"tcoram/internal/crypt"
)

// BlockHeaderBytes is the per-block metadata stored inside a bucket: a
// packed 40-bit block address and 24-bit leaf label. The paper's controller
// ([26]) packs headers similarly; 8 bytes keeps the recursive path footprint
// at the reported 12.1 KB per direction.
const BlockHeaderBytes = 8

// DummyAddr marks an empty (dummy) block slot inside a bucket.
const DummyAddr = uint64(1)<<40 - 1

// Geometry fixes the shape of one ORAM tree.
type Geometry struct {
	// Levels is the number of levels including root and leaves; the tree
	// has 2^(Levels-1) leaves and 2^Levels - 1 buckets.
	Levels int
	// Z is the number of block slots per bucket (paper: Z = 3).
	Z int
	// BlockBytes is the payload size of one block (64 B for the data ORAM,
	// 32 B for recursive position-map ORAMs).
	BlockBytes int
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Levels < 1 || g.Levels > 40:
		return fmt.Errorf("pathoram: Levels must be in [1,40], got %d", g.Levels)
	case g.Z < 1:
		return fmt.Errorf("pathoram: Z must be positive, got %d", g.Z)
	case g.BlockBytes < 1:
		return fmt.Errorf("pathoram: BlockBytes must be positive, got %d", g.BlockBytes)
	}
	return nil
}

// Leaves returns the number of leaves, 2^(Levels-1).
func (g Geometry) Leaves() uint64 { return 1 << (g.Levels - 1) }

// Buckets returns the total bucket count, 2^Levels - 1.
func (g Geometry) Buckets() uint64 { return 1<<g.Levels - 1 }

// Capacity returns the total number of block slots in the tree.
func (g Geometry) Capacity() uint64 { return g.Buckets() * uint64(g.Z) }

// BucketPlainBytes is the plaintext size of one bucket.
func (g Geometry) BucketPlainBytes() int {
	return g.Z * (BlockHeaderBytes + g.BlockBytes)
}

// BucketCipherBytes is the stored (encrypted) size of one bucket: its nonce
// (the keystream counter block it was encrypted from) plus the CTR
// ciphertext. Probabilistic encryption keeps this size
// fixed regardless of content.
func (g Geometry) BucketCipherBytes() int {
	return crypt.NonceSize + g.BucketPlainBytes()
}

// PathBytes is the number of bytes moved in one direction (read or write)
// of a single path access.
func (g Geometry) PathBytes() int { return g.Levels * g.BucketCipherBytes() }

// TreeBytes is the total external storage footprint of the tree.
func (g Geometry) TreeBytes() uint64 {
	return g.Buckets() * uint64(g.BucketCipherBytes())
}

// NodeIndex returns the bucket index of the node at the given level (root =
// level 0) on the path to leaf.
func (g Geometry) NodeIndex(leaf uint64, level int) uint64 {
	return (1<<level - 1) + (leaf >> (g.Levels - 1 - level))
}

// PathIndices appends to dst the bucket indices on the path from root to
// leaf, in root-to-leaf order, and returns the extended slice.
func (g Geometry) PathIndices(dst []uint64, leaf uint64) []uint64 {
	for level := 0; level < g.Levels; level++ {
		dst = append(dst, g.NodeIndex(leaf, level))
	}
	return dst
}

// OnPath reports whether the bucket at (level) on the path to leafA also
// lies on the path to leafB; equivalently, whether the two leaves share the
// same ancestor at that level. It is the block-placement predicate used by
// the greedy write-back.
func (g Geometry) OnPath(leafA, leafB uint64, level int) bool {
	shift := g.Levels - 1 - level
	return leafA>>shift == leafB>>shift
}

// GeometryForBlocks returns a geometry whose tree holds at least n blocks,
// following the aggressive sizing of [26] (≈1.5× provisioning with Z = 3):
// the leaf count is the smallest power of two with 2·z·leaves ≥ n. This
// reproduces the path footprint of the paper's 4 GB / 1 GB-working-set
// configuration (12.1 KB per direction with recursion, §9.1.2).
func GeometryForBlocks(n uint64, z, blockBytes int) Geometry {
	if n == 0 {
		n = 1
	}
	target := (n + 2*uint64(z) - 1) / (2 * uint64(z))
	if target == 0 {
		target = 1
	}
	levels := 1 // a tree with 2^k leaves has k+1 levels
	for leaves := uint64(1); leaves < target; leaves <<= 1 {
		levels++
	}
	g := Geometry{Levels: levels, Z: z, BlockBytes: blockBytes}
	for g.Capacity() < n {
		g.Levels++
	}
	return g
}
