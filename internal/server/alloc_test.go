package server

import (
	"testing"
)

// TestServePathAllocBudget pins the heap allocations one Read and one Write
// cost on the in-process serve path (Store call → shard queue → slot → ORAM
// access → reply), per preset. BENCHMARK.json bounds allocs_per_op at 2 %,
// which on these single-digit counts means "not one more"; this test makes
// go test catch the extra allocation before the benchmark pipeline does.
//
// The budgets are the counts measured at ba95740, the commit before the
// three ORAM backends and the serve-loop twins were unified:
//
//	preset     Read  Write
//	flat          5      5
//	recursive     5      5
//	batched       6      6
//
// The file-backed flat shard at cadence 8 (one log record per 8 ops, its
// checkpoints included in the count) has the same budget: the record is
// encoded and sealed in one reused buffer and appended to the open log,
// and a page-cache miss recycles the evicted page, so neither adds an
// allocation.
//
// Read: request, reply channel (header and its pointer-carrying buffer are
// two objects), the slot's group closure, the result copy. Write: padded
// payload, request, reply channel (two), the group closure. Batched adds the
// tombstone set a deferred fetch creates (pathoram's
// TestBatchedSlotAllocBudget pins that one at its source). AllocsPerRun
// counts every goroutine's allocations, so the shard loop's share is
// included.
func TestServePathAllocBudget(t *testing.T) {
	presets := []struct {
		name   string
		set    func(*Config)
		budget float64 // per Read and per Write alike
	}{
		{"flat", func(c *Config) { c.Backend = BackendFlat }, 5},
		{"recursive", func(c *Config) { c.Backend = BackendRecursive; c.Recursion = 2 }, 5},
		{"batched", func(c *Config) { c.Backend = BackendBatched; c.BatchK = 4; c.EvictEvery = 4 }, 6},
		{"file", func(c *Config) {
			// A tree of 2047 buckets behind a 16-page cache: most of every
			// path misses.
			c.Blocks, c.Store, c.DataDir, c.CheckpointEvery, c.CacheBuckets = 2048, StoreFile, t.TempDir(), 8, 16
		}, 5},
	}
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			cfg := Config{Shards: 1, Blocks: 256, BlockBytes: 64, Unpaced: true}
			p.set(&cfg)
			st, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			payload := make([]byte, cfg.BlockBytes)
			// Touch every block twice so first-touch growth (position map,
			// stash buffers, eviction scratch) is out of the way.
			for pass := 0; pass < 2; pass++ {
				for a := uint64(0); a < cfg.Blocks; a++ {
					if err := st.Write(a, payload); err != nil {
						t.Fatal(err)
					}
				}
			}
			var addr uint64
			reads := testing.AllocsPerRun(400, func() {
				addr = (addr + 7) % cfg.Blocks
				if _, err := st.Read(addr); err != nil {
					t.Fatal(err)
				}
			})
			writes := testing.AllocsPerRun(400, func() {
				addr = (addr + 7) % cfg.Blocks
				if err := st.Write(addr, payload); err != nil {
					t.Fatal(err)
				}
			})
			if reads != p.budget || writes != p.budget {
				t.Errorf("serve path allocates %v per Read and %v per Write, budget %v each",
					reads, writes, p.budget)
			}
		})
	}
}
