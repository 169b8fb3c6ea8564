package pathoram

// This file holds what the concurrent server layer needs to partition a flat
// address space across N independent stacks (the sub-ORAM idea of Stefanov
// et al.'s partitioned ORAM, applied here for parallelism rather than
// on-chip space): a per-shard RNG seed and the per-shard tree shape. The
// server builds shard i as NewStackOn(cfg, key, rand.New(rand.NewSource(
// ShardSeed(seed, i))), factory) — the same call for RAM and file stores.
//
// Shared-state audit — what two stacks may and may not share:
//
//   - crypt.Key is a value; instances encrypting under the same key share no
//     mutable state through it.
//   - crypt.Cipher carries a per-instance CTR keystream and scratch and is
//     NOT safe for concurrent use; NewORAM builds a private Cipher per tree, so each
//     shard owns its own (mirroring one AES pipeline per shard).
//   - *rand.Rand is mutable and unsynchronized. Every level of a stack draws
//     its leaf remaps from the rng the stack is given, and its Cipher draws
//     the 16-byte IV of its write keystream from it once, so two shards must
//     NEVER be constructed with the same *rand.Rand — ShardSeed derives an
//     independent deterministic stream per shard, and identical (cfg, key,
//     seed) inputs rebuild byte-identical shards.
//   - ByteStorage, Stash, positionMap, the scratch buffers and the deferred
//     policy's state (stash backlog, tombstones, eviction counter) are all
//     built privately inside the constructors and never escape.
//
// Consequently a *Stack is safe for use from one goroutine at a time, and N
// stacks built from N ShardSeeds are safe for N goroutines, one per shard.

// ShardSeed derives shard i's RNG seed from the store seed via splitmix64, so
// adjacent shard indices get decorrelated streams.
func ShardSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}

// ShardGeometry returns the per-shard tree shape for a store of totalBlocks
// blocks split across n shards: each shard holds ceil(totalBlocks/n) blocks.
func ShardGeometry(totalBlocks uint64, n int, z, blockBytes int) Geometry {
	if n < 1 {
		n = 1
	}
	per := (totalBlocks + uint64(n) - 1) / uint64(n)
	return GeometryForBlocks(per, z, blockBytes)
}
