package pathoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"tcoram/internal/crypt"
)

func TestUpdateMatchesAccessSemantics(t *testing.T) {
	var key crypt.Key
	g := Geometry{Levels: 5, Z: 3, BlockBytes: 32}
	o, err := NewORAM(g, key, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	// Never-written block reads as zeroes through Update.
	var seen []byte
	if err := o.Update(3, func(data []byte) {
		seen = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, make([]byte, 32)) {
		t.Fatalf("fresh block not zero: %x", seen)
	}

	// A read-modify-write in one access: old contents visible, mutation
	// durable.
	want := bytes.Repeat([]byte{0xAB}, 32)
	if _, err := o.Access(OpWrite, 9, want); err != nil {
		t.Fatal(err)
	}
	before := o.Accesses
	if err := o.Update(9, func(data []byte) {
		if !bytes.Equal(data, want) {
			t.Fatalf("Update saw %x, want %x", data, want)
		}
		data[0] = 0xCD
	}); err != nil {
		t.Fatal(err)
	}
	if o.Accesses != before+1 {
		t.Fatalf("Update cost %d accesses, want 1", o.Accesses-before)
	}
	got, err := o.Access(OpRead, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	want[0] = 0xCD
	if !bytes.Equal(got, want) {
		t.Fatalf("after Update read %x, want %x", got, want)
	}
	if err := o.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	if err := o.Update(DummyAddr, nil); err == nil {
		t.Error("Update accepted out-of-range address")
	}
}

// shardStack builds shard i of a store the way the server does: the one
// constructor over the shard's own ShardSeed stream.
func shardStack(t *testing.T, cfg StackConfig, key crypt.Key, seed int64, i int) *Stack {
	t.Helper()
	s, err := NewStack(cfg, key, rand.New(rand.NewSource(ShardSeed(seed, i))))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shardPresets are the three parameter points the server names.
func shardPresets() map[string]StackConfig {
	shape := RecursiveConfig{DataBlocks: 96, DataBlockBytes: 32, PosMapBlockBytes: 32, Z: 3}
	flat := StackConfig{RecursiveConfig: shape}
	recursive := flat
	recursive.Recursion = 2
	batched := recursive
	batched.BatchK, batched.EvictEvery = 4, 4
	return map[string]StackConfig{"flat": flat, "recursive": recursive, "batched": batched}
}

// TestShardStacksDeterministicAndIndependent: identical (cfg, key, seed, i)
// rebuild byte-identical trees at every level, and distinct shard indices
// draw distinct keystream IVs.
func TestShardStacksDeterministicAndIndependent(t *testing.T) {
	var key crypt.Key
	for name, cfg := range shardPresets() {
		a0, b0, a1 := shardStack(t, cfg, key, 42, 0), shardStack(t, cfg, key, 42, 0), shardStack(t, cfg, key, 42, 1)
		for level, o := range a0.orams {
			for idx := uint64(0); idx < o.Geometry().Buckets(); idx++ {
				if !bytes.Equal(o.Storage().ReadBucket(idx), b0.orams[level].Storage().ReadBucket(idx)) {
					t.Fatalf("%s: level %d bucket %d differs across identical constructions", name, level, idx)
				}
			}
			if bytes.Equal(o.Storage().ReadBucket(0), a1.orams[level].Storage().ReadBucket(0)) {
				t.Fatalf("%s: shards 0 and 1 produced identical level-%d root ciphertexts — shared RNG stream?", name, level)
			}
		}
		bad := cfg
		bad.DataBlocks = 0
		if _, err := NewStack(bad, key, nil); err == nil {
			t.Errorf("%s: NewStack accepted an invalid config", name)
		}
	}
}

// TestLevelIVsDistinct: every tree of every shard opens its own write
// keystream, from 16 bytes of the shard's rng, so the IVs of all levels ×
// shards of a 4-shard recursive store are pairwise distinct. A fresh tree's
// bucket 0 carries its IV, and initialization walks the tree in index order
// on that one stream, so bucket i's nonce is the IV advanced by i buckets'
// worth of blocks.
func TestLevelIVsDistinct(t *testing.T) {
	cfg := shardPresets()["recursive"]
	seen := map[string]string{}
	for shard := 0; shard < 4; shard++ {
		s := shardStack(t, cfg, crypt.Key{}, 42, shard)
		for level, o := range s.orams {
			g := o.Geometry()
			iv := o.Storage().ReadBucket(0)[:crypt.NonceSize]
			where := fmt.Sprintf("shard %d level %d", shard, level)
			if prev, dup := seen[string(iv)]; dup {
				t.Fatalf("%s reuses the IV %x of %s", where, iv, prev)
			}
			seen[string(iv)] = where
			step := uint64(g.BucketPlainBytes()+15) / 16
			hi, lo := binary.BigEndian.Uint64(iv[:8]), binary.BigEndian.Uint64(iv[8:])
			for idx := uint64(0); idx < g.Buckets(); idx++ {
				nonce := o.Storage().ReadBucket(idx)[:crypt.NonceSize]
				if binary.BigEndian.Uint64(nonce[:8]) != hi || binary.BigEndian.Uint64(nonce[8:]) != lo {
					t.Fatalf("%s: bucket %d nonce %x is not the IV advanced by %d blocks", where, idx, nonce, idx*step)
				}
				var carry uint64
				lo, carry = bits.Add64(lo, step, 0)
				hi += carry
			}
		}
	}
}

// TestShardStacksConcurrentUse drives each shard from its own goroutine under
// the race detector — the access pattern the server layer relies on being
// safe per the shared-state audit in shards.go.
func TestShardStacksConcurrentUse(t *testing.T) {
	var key crypt.Key
	for name, cfg := range shardPresets() {
		shards := make([]*Stack, 4)
		for i := range shards {
			shards[i] = shardStack(t, cfg, key, 99, i)
		}
		var wg sync.WaitGroup
		for si, s := range shards {
			wg.Add(1)
			go func(si int, s *Stack) {
				defer wg.Done()
				buf := make([]byte, 32)
				for i := 0; i < 200; i++ {
					addr := uint64(i % 8)
					buf[0], buf[1] = byte(si), byte(i)
					if _, err := s.Access(OpWrite, addr, buf); err != nil {
						t.Errorf("%s shard %d write: %v", name, si, err)
						return
					}
					if got, err := s.Access(OpRead, addr, nil); err != nil || !bytes.Equal(got, buf) {
						t.Errorf("%s shard %d read back %x, %v", name, si, got, err)
						return
					}
					if i%50 == 0 {
						if err := s.DummyAccess(); err != nil {
							t.Errorf("%s shard %d dummy: %v", name, si, err)
							return
						}
					}
				}
			}(si, s)
		}
		wg.Wait()
		for si, s := range shards {
			if err := s.CheckInvariant(); err != nil {
				t.Errorf("%s shard %d invariant: %v", name, si, err)
			}
		}
	}
}

func TestShardGeometry(t *testing.T) {
	g := ShardGeometry(1024, 4, 3, 64)
	if g.Capacity() < 256 {
		t.Fatalf("per-shard capacity %d < 256", g.Capacity())
	}
	if g.BlockBytes != 64 || g.Z != 3 {
		t.Fatalf("geometry lost parameters: %+v", g)
	}
	// Uneven split rounds up.
	g = ShardGeometry(10, 3, 3, 64)
	if g.Capacity() < 4 {
		t.Fatalf("uneven split capacity %d < 4", g.Capacity())
	}
}
