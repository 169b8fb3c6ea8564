package server

import (
	"cmp"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
)

// TestServePathAllocBudget pins the heap allocations one op costs on the
// in-process serve path (Store call → shard queue → slot → ORAM access →
// reply), per preset. BENCHMARK.json bounds allocs_per_op at 2 %, which on
// these single-digit counts means "not one more"; this test makes go test
// catch the extra allocation before the benchmark pipeline does.
//
//	call                   flat  recursive  batched  file
//	Read                      1          1        1     1
//	Write                     0          0        0     0
//	Do, reused read op        0          0        0     0
//	Do, reused write op       0          0        0     0
//
// The one allocation is the block Read must return fresh: Do allocates it
// on the caller's goroutine because the read op brings no buffer. Nothing
// else allocates, on either side of the queue. Do takes its requests and
// their reply channels from the store's free list, borrows a write's
// payload until the slot has zero-padded it into the block, and copies a
// read's block into the op's own Data when it has the capacity; the shard
// applies each coalesced group through a callback built once per batch
// position, and the batched backend keeps its tombstones as bits in one
// preallocated byte per bucket. The
// file-backed flat shard at cadence 8 (its checkpoints included in the
// count) encodes and seals each log record in one reused buffer and
// recycles evicted cache pages. AllocsPerRun counts every goroutine's
// allocations, so the shard loop's share is included.
func TestServePathAllocBudget(t *testing.T) {
	presets := []struct {
		name string
		set  func(*Config)
	}{
		{"flat", func(c *Config) { c.Backend = BackendFlat }},
		{"recursive", func(c *Config) { c.Backend = BackendRecursive; c.Recursion = 2 }},
		{"batched", func(c *Config) { c.Backend = BackendBatched; c.BatchK = 4; c.EvictEvery = 4 }},
		{"file", func(c *Config) {
			// A tree of 2047 buckets behind a 16-page cache: most of every
			// path misses.
			c.Blocks, c.Store, c.DataDir, c.CheckpointEvery, c.CacheBuckets = 2048, StoreFile, t.TempDir(), 8, 16
		}},
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
			read := make([]Op, 1)
			write := []Op{{Write: true, Data: payload}}
			buf := make([]byte, cfg.BlockBytes)
			for _, c := range []struct {
				name   string
				budget float64
				op     func() error
			}{
				{"Read", 1, func() error { _, err := st.Read(addr); return err }},
				{"Write", 0, func() error { return st.Write(addr, payload) }},
				{"Do read", 0, func() error {
					read[0] = Op{Addr: addr, Data: buf}
					return cmp.Or(st.Do("", read), read[0].Err)
				}},
				{"Do write", 0, func() error {
					write[0].Addr = addr
					return cmp.Or(st.Do("", write), write[0].Err)
				}},
			} {
				got := testing.AllocsPerRun(400, func() {
					addr = (addr + 7) % cfg.Blocks
					if err := c.op(); err != nil {
						t.Fatal(err)
					}
				})
				if got != c.budget {
					t.Errorf("%s allocates %v, budget %v", c.name, got, c.budget)
				}
			}
		})
	}
}

// TestHeapIgnoresRealDummyMix runs a paced store's slot grid for n slots
// that all carry a real op, submitted through Do with reused ops and
// buffers, and then for n slots that are all dummies. If the heap tracked
// the real/dummy mix, so would the collector's cycles, and a GC cycle slows
// the slot loop: a host-side clock the fixed-rate grid would then have to
// hide. Both phases must allocate the same number of heap objects and run
// the same number of GC cycles.
//
// Each phase starts with runtime.GC, so neither inherits the other's
// allocation debt, and reads the metrics only after runtime.ReadMemStats
// has flushed every P's allocation counts into them. A collection also
// empties runtime caches (the central cache of the records a blocked
// channel operation waits on, say) that the next few slots refill, so each
// phase runs settle slots of its own kind before its first read. The phases
// alternate three times and each keeps its least count, so a one-off
// allocation elsewhere in the process cannot decide the test; an
// allocation per real slot would show in every round, n-fold.
func TestHeapIgnoresRealDummyMix(t *testing.T) {
	const n, settle, rounds = 200, 20, 3
	cfg := fastConfig(1)
	cfg.Blocks = 256
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh := st.shards[0]

	buf := make([]byte, cfg.BlockBytes)
	ops := make([]Op, 1)
	var addr uint64
	real := func(n uint64) {
		for until := sh.reals.Load() + n; sh.reals.Load() < until; {
			addr = (addr + 7) % cfg.Blocks
			ops[0] = Op{Addr: addr, Write: addr%2 == 0, Data: buf}
			if err := st.Do("", ops); err != nil || ops[0].Err != nil {
				t.Fatal(err, ops[0].Err)
			}
		}
	}
	period := time.Duration(cfg.ORAMLatency+cfg.Rates[0]) * time.Microsecond
	dummy := func(n uint64) {
		for until := sh.dummies.Load() + n; sh.dummies.Load() < until; {
			time.Sleep(period)
		}
	}
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var flush runtime.MemStats
	read := func() (objects, cycles uint64) {
		runtime.ReadMemStats(&flush) // stops the world and flushes every P's counts
		metrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Uint64()
	}
	measure := func(phase func(uint64)) (objects, cycles uint64) {
		runtime.GC()
		phase(settle)
		o, c := read()
		phase(n)
		o2, c2 := read()
		return o2 - o, c2 - c
	}
	// Touch every block twice, so first-touch growth is out of the way, and
	// warm both phases (the test goroutine's sleep timer, the metrics
	// reader).
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < cfg.Blocks; a++ {
			if err := st.Write(a, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure(real)
	measure(dummy)

	least := func(v *[2]uint64, objects, cycles uint64, first bool) {
		if first || objects < v[0] {
			v[0] = objects
		}
		if first || cycles < v[1] {
			v[1] = cycles
		}
	}
	var realCost, dummyCost [2]uint64
	for r := 0; r < rounds; r++ {
		o, c := measure(real)
		least(&realCost, o, c, r == 0)
		o, c = measure(dummy)
		least(&dummyCost, o, c, r == 0)
	}
	t.Logf("per phase of %d slots: real %d objects, %d GC cycles; dummy %d objects, %d GC cycles",
		n, realCost[0], realCost[1], dummyCost[0], dummyCost[1])
	if realCost != dummyCost {
		t.Errorf("%d real slots cost %d heap objects and %d GC cycles, %d dummy slots %d and %d: the heap tracks the real/dummy mix",
			n, realCost[0], realCost[1], n, dummyCost[0], dummyCost[1])
	}
}
