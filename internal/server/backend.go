package server

import (
	"fmt"

	"tcoram/internal/pathoram"
)

// Preset values for Config.Backend. Every shard owns one pathoram.Stack; a
// preset names a point in its (levels, k, K, policy) parameter space.
const (
	// BackendFlat is levels = 0, classic policy: the whole position map in
	// the controller. Fastest, but position-map memory grows linearly with
	// the address space.
	BackendFlat = "flat"
	// BackendRecursive is levels = Recursion, classic policy: every access
	// traverses all levels (the paper's all-levels traffic), but on-chip
	// position-map state shrinks by the label fan-out per recursion level,
	// serving address spaces a flat map can't hold.
	BackendRecursive = "recursive"
	// BackendBatched is the deferred policy over levels = Recursion: up to
	// BatchK blocks fetched per slot (dummy-padded to a fixed path count)
	// with write-back deferred to a deterministic eviction pass every
	// EvictEvery slots. Composes with Recursion and Integrity.
	BackendBatched = "batched"
)

// stackConfig decodes the preset into one shard's stack: each shard holds
// ceil(Blocks/Shards) data blocks, with the paper's 32 B position-map
// blocks. Fields a preset does not use (Recursion under flat, the batching
// knobs outside batched) are ignored, as they always were.
func (c Config) stackConfig() pathoram.StackConfig {
	sc := pathoram.StackConfig{RecursiveConfig: pathoram.RecursiveConfig{
		DataBlocks:       (c.Blocks + uint64(c.Shards) - 1) / uint64(c.Shards),
		DataBlockBytes:   c.BlockBytes,
		PosMapBlockBytes: 32,
		Z:                c.Z,
	}}
	if c.Backend == BackendRecursive || c.Backend == BackendBatched {
		sc.Recursion = c.Recursion
	}
	if c.Backend == BackendBatched {
		sc.BatchK, sc.EvictEvery = c.BatchK, c.EvictEvery
	}
	return sc
}

// BackendLabel renders the effective backend configuration for human-
// readable status lines ("flat", "recursive×3+integrity",
// "batched(k=4,K=4)") — shared by both CLIs so the description can't drift
// between them.
func (c Config) BackendLabel() string {
	label := c.Backend
	switch c.Backend {
	case BackendRecursive:
		label = fmt.Sprintf("recursive×%d", c.Recursion)
	case BackendBatched:
		label = fmt.Sprintf("batched(k=%d,K=%d)", c.BatchK, c.EvictEvery)
		if c.Recursion > 0 {
			label = fmt.Sprintf("batched×%d(k=%d,K=%d)", c.Recursion, c.BatchK, c.EvictEvery)
		}
	}
	if c.Integrity {
		label += "+integrity"
	}
	return label
}

// newStack builds shard i's stack — in RAM, or for the file store built or
// recovered over the shard's data-dir subdirectory, in which case the
// returned persister is its checkpoint engine. RAM and file shards draw the
// same ShardSeed stream through the same constructor, so a fresh store of
// either kind issues the same accesses.
func newStack(cfg Config, i int) (*pathoram.Stack, *persister, error) {
	var (
		s   *pathoram.Stack
		p   *persister
		err error
	)
	if cfg.Store == StoreFile {
		// File-backed shards enable integrity during initialization (fresh)
		// or inherit it from recovery; the Merkle roots are what checkpoints
		// bind the untrusted files to, so there is no integrity-off mode.
		s, p, err = newFileShard(cfg, i)
	} else {
		s, err = pathoram.NewStack(cfg.stackConfig(), cfg.Key, shardRNG(cfg.Seed, i, 0))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("server: shard %d: %w", i, err)
	}
	if p == nil && cfg.Integrity {
		s.EnableIntegrity()
	}
	s.TraceSlots = cfg.TraceSlots
	return s, p, nil
}
