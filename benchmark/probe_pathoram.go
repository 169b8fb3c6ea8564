package main

import (
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tcoram/internal/crypt"
	"tcoram/internal/pathoram"
)

// probeGeometry is the tree of one flat-mem shard.
func probeGeometry(blocksLog2 int) (pathoram.Geometry, uint64) {
	blocks := uint64(1) << blocksLog2
	return pathoram.ShardGeometry(blocks, 2, bucketZ, 64), blocks / 2
}

// accessor is the single-access surface all three backends share.
type accessor interface {
	Update(addr uint64, fn func(data []byte)) error
	DummyAccess() error
}

// timeAccesses writes every block once, then times iters read-modify-write
// accesses to seeded-random addresses. It returns ns and heap allocations
// per access.
func timeAccesses(o accessor, blocks uint64, iters int) (ns, allocs float64, err error) {
	touch := func(data []byte) { data[0]++ }
	for a := uint64(0); a < blocks; a++ {
		if err := o.Update(a, touch); err != nil {
			return 0, 0, err
		}
	}
	rng := rand.New(rand.NewSource(7))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := o.Update(rng.Uint64()%blocks, touch); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(el.Nanoseconds()) / float64(iters), float64(ms1.Mallocs-ms0.Mallocs) / float64(iters), nil
}

func timeDummies(o accessor, iters int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := o.DummyAccess(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters), nil
}

func probePathoram(out map[string]float64, blocksLog2 int, scale float64, scratch string) error {
	g, blocks := probeGeometry(blocksLog2)
	iters := int(10000 * scale)
	var key crypt.Key
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }

	flat, err := pathoram.NewORAM(g, key, rng())
	if err != nil {
		return err
	}
	if out["pathoram.flat_access_ns"], out["pathoram.flat_allocs"], err = timeAccesses(flat, blocks, iters); err != nil {
		return err
	}
	if out["pathoram.flat_dummy_ns"], err = timeDummies(flat, iters); err != nil {
		return err
	}

	merkle, err := pathoram.NewORAM(g, key, rng())
	if err != nil {
		return err
	}
	merkle.EnableIntegrity()
	withMerkle, _, err := timeAccesses(merkle, blocks, iters/2)
	if err != nil {
		return err
	}
	out["pathoram.merkle_overhead_ns"] = withMerkle - out["pathoram.flat_access_ns"]

	// CaptureState is what every checkpoint starts from; its gob size is
	// what a full checkpoint seals.
	for i := uint64(0); i < 8; i++ {
		if err := merkle.Update(i, nil); err != nil {
			return err
		}
	}
	const captures = 20
	t0 := time.Now()
	var st *pathoram.ShardState
	for i := 0; i < captures; i++ {
		if st, err = merkle.CaptureState(); err != nil {
			return err
		}
	}
	out["pathoram.capture_state_us"] = float64(time.Since(t0).Microseconds()) / captures
	var size countingWriter
	if err := gob.NewEncoder(&size).Encode(st); err != nil {
		return err
	}
	out["pathoram.capture_state_kb"] = float64(size) / 1024

	rcfg := pathoram.RecursiveConfig{DataBlocks: blocks, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: bucketZ, Recursion: 2}
	for _, v := range []struct {
		name      string
		integrity bool
	}{{"pathoram.recursive_access_ns", false}, {"pathoram.recursive_merkle_access_ns", true}} {
		rec, err := pathoram.NewRecursive(rcfg, key, rng())
		if err != nil {
			return err
		}
		if v.integrity {
			rec.EnableIntegrity()
		}
		if out[v.name], _, err = timeAccesses(rec, blocks, iters/2); err != nil {
			return err
		}
	}

	bcfg := pathoram.BatchedConfig{RecursiveConfig: rcfg, BatchK: 4, EvictEvery: 4}
	bcfg.Recursion = 0
	bat, err := pathoram.NewBatched(bcfg, key, rng())
	if err != nil {
		return err
	}
	touch := func(data []byte) { data[0]++ }
	ops := make([]pathoram.BatchOp, bcfg.BatchK)
	slot := func(base uint64) error {
		for i := range ops {
			ops[i] = pathoram.BatchOp{Addr: (base + uint64(i)) % blocks, Fn: touch}
		}
		return bat.AccessBatch(ops)
	}
	for a := uint64(0); a < blocks; a += uint64(len(ops)) {
		if err := slot(a); err != nil {
			return err
		}
	}
	r := rng()
	t0 = time.Now()
	for i := 0; i < iters/2; i++ {
		if err := slot(r.Uint64()); err != nil {
			return err
		}
	}
	out["pathoram.batched_slot_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(iters/2)
	if out["pathoram.batched_dummy_slot_ns"], err = timeDummies(bat, iters/2); err != nil {
		return err
	}

	// The file store three ways: a cache that holds the whole tree, one that
	// holds 64 buckets, and 64 buckets with clean reads served from a mapping.
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, v := range []struct {
		name  string
		cache int
		mmap  bool
	}{
		{"pathoram.file_access_hit_ns", int(g.Buckets()), false},
		{"pathoram.file_access_miss_ns", 64, false},
		{"pathoram.file_access_mmap_ns", 64, true},
	} {
		fs, err := pathoram.CreateFileStorage(g, pathoram.FileStorageConfig{
			Path: filepath.Join(dir, filepath.Base(v.name)), CacheBuckets: v.cache, MMap: v.mmap})
		if err != nil {
			return err
		}
		o, err := pathoram.NewORAMOn(g, key, rng(), fs)
		if err == nil {
			out[v.name], _, err = timeAccesses(o, blocks, iters/2)
		}
		fs.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
