package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcoram/internal/crypt"
	"tcoram/internal/pathoram"
)

// fileStoreCfg is a small Unpaced file-backed config: Unpaced keeps the
// workload deterministic (no wall-clock dummy slots), which the equivalence
// and round-trip assertions rely on.
func fileStoreCfg(dir, backend string) Config {
	cfg := Config{
		Shards:          2,
		Blocks:          256,
		BlockBytes:      32,
		Backend:         backend,
		Store:           StoreFile,
		DataDir:         dir,
		CheckpointEvery: 1,
		QueueDepth:      16,
		Unpaced:         true,
		Key:             crypt.Key{42},
	}
	if backend != BackendFlat {
		cfg.Recursion = 1
	}
	return cfg
}

// TestFileStoreRoundTrip is the clean-shutdown durability loop for every
// backend kind and both checkpoint modes: write, close, reopen (recovered),
// verify, write a second generation, close, reopen, verify both generations.
// In delta mode the second and third boots recover through base + chain.
func TestFileStoreRoundTrip(t *testing.T) {
	for _, mode := range []string{CheckpointFull, CheckpointDelta} {
		for _, backend := range []string{BackendFlat, BackendRecursive, BackendBatched} {
			t.Run(mode+"/"+backend, func(t *testing.T) {
				cfg := fileStoreCfg(t.TempDir(), backend)
				cfg.CheckpointMode = mode
				st, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, ss := range st.Stats().Shards {
					if ss.Recovery != "fresh" {
						t.Errorf("shard %d boot outcome %q, want fresh", ss.Shard, ss.Recovery)
					}
				}
				payload := func(gen int, addr uint64) []byte {
					return []byte(fmt.Sprintf("g%d-a%d", gen, addr))
				}
				for addr := uint64(0); addr < 64; addr++ {
					if err := st.Write(addr, payload(1, addr)); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}

				st2, err := New(cfg)
				if err != nil {
					t.Fatalf("reopening data dir: %v", err)
				}
				stats := st2.Stats()
				for _, ss := range stats.Shards {
					if ss.Recovery != "recovered" {
						t.Errorf("shard %d reboot outcome %q, want recovered", ss.Shard, ss.Recovery)
					}
				}
				for addr := uint64(0); addr < 64; addr++ {
					got, err := st2.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.HasPrefix(got, payload(1, addr)) {
						t.Fatalf("addr %d reads %q after recovery, want prefix %q", addr, got, payload(1, addr))
					}
				}
				for addr := uint64(32); addr < 96; addr++ {
					if err := st2.Write(addr, payload(2, addr)); err != nil {
						t.Fatal(err)
					}
				}
				if err := st2.Close(); err != nil {
					t.Fatal(err)
				}

				st3, err := New(cfg)
				if err != nil {
					t.Fatalf("third boot: %v", err)
				}
				defer st3.Close()
				for addr := uint64(0); addr < 96; addr++ {
					want := payload(1, addr)
					if addr >= 32 {
						want = payload(2, addr)
					}
					got, err := st3.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.HasPrefix(got, want) {
						t.Fatalf("addr %d reads %q across two generations, want prefix %q", addr, got, want)
					}
				}
			})
		}
	}
}

// flipByte XORs one mid-file byte and returns an undo function.
func flipByte(t *testing.T, path string, off int64) func() {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off = int64(len(raw)) / 2
	}
	tampered := append([]byte(nil), raw...)
	tampered[off] ^= 0x01
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreTamperFailsClosed pins the two distinct fail-closed paths:
// a flipped bucket-file byte is caught by Merkle-root verification
// (pathoram.ErrRootMismatch), a flipped checkpoint byte by the seal's MAC
// (crypt.ErrAuthFailed), and a deleted checkpoint refuses reinitialization
// (ErrNoCheckpoint).
func TestFileStoreTamperFailsClosed(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards = 1
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 32; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	bucketFile := filepath.Join(dir, "shard-0000", "level-0.oram")
	ckptFile := filepath.Join(dir, "shard-0000", "base.bin")

	undo := flipByte(t, bucketFile, -1)
	if _, err := New(cfg); !errors.Is(err, pathoram.ErrRootMismatch) {
		t.Fatalf("boot over tampered bucket file: got %v, want ErrRootMismatch", err)
	}
	undo()

	undo = flipByte(t, ckptFile, -1)
	if _, err := New(cfg); !errors.Is(err, crypt.ErrAuthFailed) {
		t.Fatalf("boot over tampered checkpoint: got %v, want ErrAuthFailed", err)
	}
	undo()

	st, err = New(cfg)
	if err != nil {
		t.Fatalf("boot after undoing tampering: %v", err)
	}
	got, err := st.Read(7)
	if err != nil || got[0] != 7 {
		t.Fatalf("read after untampered recovery: %v %v", got, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(ckptFile); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("boot with bucket files but no checkpoint: got %v, want ErrNoCheckpoint", err)
	}
}

// TestMemFileEquivalence drives the same seeded sequential workload against
// a RAM-backed and a file-backed store for every backend kind and requires
// identical op results; for the batched backend it additionally requires
// byte-identical JSON slot-signature traces — the adversary-visible storage
// schedule must not depend on the storage tier.
func TestMemFileEquivalence(t *testing.T) {
	type opResult struct {
		data []byte
		err  error
	}
	run := func(cfg Config) (results []opResult, traces []byte) {
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			addr := uint64(i*29) % cfg.Blocks
			if i%3 != 2 {
				buf := []byte{byte(i), byte(addr), byte(i >> 3)}
				results = append(results, opResult{err: st.Write(addr, buf)})
			} else {
				data, err := st.Read(addr)
				results = append(results, opResult{data: data, err: err})
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if cfg.TraceSlots {
			out, err := json.Marshal(st.SlotTraces())
			if err != nil {
				t.Fatal(err)
			}
			traces = out
		}
		return results, traces
	}
	for _, backend := range []string{BackendFlat, BackendRecursive, BackendBatched} {
		t.Run(backend, func(t *testing.T) {
			fileCfg := fileStoreCfg(t.TempDir(), backend)
			memCfg := fileCfg
			memCfg.Store = StoreMem
			memCfg.DataDir = ""
			memCfg.CheckpointEvery = 0
			// The file store forces integrity; match it on the RAM side so
			// the two runs differ in nothing but the storage tier.
			memCfg.Integrity = true
			if backend == BackendBatched {
				fileCfg.TraceSlots = true
				memCfg.TraceSlots = true
			}
			deltaCfg := fileStoreCfg(t.TempDir(), backend)
			deltaCfg.CheckpointMode = CheckpointDelta
			deltaCfg.TraceSlots = fileCfg.TraceSlots
			memRes, memTrace := run(memCfg)
			fileRes, fileTrace := run(fileCfg)
			deltaRes, deltaTrace := run(deltaCfg)
			if len(memRes) != len(fileRes) || len(memRes) != len(deltaRes) {
				t.Fatalf("op counts diverge: mem %d, file %d, delta %d", len(memRes), len(fileRes), len(deltaRes))
			}
			for i := range memRes {
				if (memRes[i].err == nil) != (fileRes[i].err == nil) {
					t.Fatalf("op %d error mismatch: mem %v, file %v", i, memRes[i].err, fileRes[i].err)
				}
				if !bytes.Equal(memRes[i].data, fileRes[i].data) {
					t.Fatalf("op %d result diverges between mem and file stores", i)
				}
				if (memRes[i].err == nil) != (deltaRes[i].err == nil) || !bytes.Equal(memRes[i].data, deltaRes[i].data) {
					t.Fatalf("op %d result diverges between mem and delta-checkpointed file stores", i)
				}
			}
			if backend == BackendBatched && !bytes.Equal(memTrace, fileTrace) {
				t.Fatalf("slot-signature traces diverge between mem and file stores:\nmem  %s\nfile %s", memTrace, fileTrace)
			}
			if backend == BackendBatched && !bytes.Equal(memTrace, deltaTrace) {
				t.Fatalf("slot-signature traces diverge between mem and delta-mode file stores:\nmem   %s\ndelta %s", memTrace, deltaTrace)
			}
		})
	}
}

// TestStoreConfigValidation covers the storage-tier Validate rules,
// including the RAM-store size cap that replaced the old constructor panic.
func TestStoreConfigValidation(t *testing.T) {
	base := Config{Shards: 1, Blocks: 256, BlockBytes: 64, Z: 3}

	huge := base
	huge.Blocks = 1 << 26 // ~25 GB of buckets: far beyond the RAM store cap
	err := huge.withDefaults().Validate()
	if err == nil || !strings.Contains(err.Error(), "RAM store") {
		t.Fatalf("oversized mem config: got %v, want the RAM-store cap error", err)
	}
	huge.Store = StoreFile
	huge.DataDir = t.TempDir()
	if err := huge.withDefaults().Validate(); err != nil {
		t.Fatalf("the file store must lift the RAM cap, got %v", err)
	}

	bad := base
	bad.DataDir = "/tmp/x"
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("DataDir without Store file must be rejected")
	}
	bad = base
	bad.CheckpointEvery = 1
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("CheckpointEvery without Store file must be rejected")
	}
	bad = base
	bad.Store = StoreFile
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("Store file without DataDir must be rejected")
	}
	bad = base
	bad.Store = StoreFile
	bad.DataDir = "/tmp/x"
	bad.Sync = "sometimes"
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("unknown sync policy must be rejected")
	}
	bad = base
	bad.Store = "paper"
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("unknown store kind must be rejected")
	}
	bad = base
	bad.CheckpointMode = CheckpointDelta
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("CheckpointMode without Store file must be rejected")
	}
	bad = base
	bad.DeltaCompactAfter = 1 << 20
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("DeltaCompactAfter without Store file must be rejected")
	}
	bad = base
	bad.MMap = true
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("MMap without Store file must be rejected")
	}
	bad = base
	bad.Store = StoreFile
	bad.DataDir = "/tmp/x"
	bad.CheckpointMode = "incremental"
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("unknown checkpoint mode must be rejected")
	}
	bad = base
	bad.Store = StoreFile
	bad.DataDir = "/tmp/x"
	bad.CheckpointMode = CheckpointFull
	bad.DeltaCompactAfter = 1 << 20
	if err := bad.withDefaults().Validate(); err == nil {
		t.Fatal("DeltaCompactAfter in full checkpoint mode must be rejected")
	}

	ok := base
	ok.Store = StoreFile
	ok.DataDir = t.TempDir()
	ok.CheckpointEvery = 8
	ok.Sync = "checkpoint"
	cfg := ok.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid file-store config rejected: %v", err)
	}
	if !cfg.Integrity {
		t.Fatal("the file store must force Integrity on")
	}
	if cfg.CheckpointMode != CheckpointFull {
		t.Fatalf("file-store default checkpoint mode is %q, want %q", cfg.CheckpointMode, CheckpointFull)
	}

	ok.CheckpointMode = CheckpointDelta
	cfg = ok.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid delta-mode config rejected: %v", err)
	}
	if cfg.DeltaCompactAfter != 4<<20 {
		t.Fatalf("delta mode default compaction threshold is %d, want %d", cfg.DeltaCompactAfter, 4<<20)
	}
}

// TestFileStoreStats checks that a file-backed store surfaces the
// storage-tier counters and checkpoint count through ShardStats.
func TestFileStoreStats(t *testing.T) {
	cfg := fileStoreCfg(t.TempDir(), BackendFlat)
	cfg.Shards = 1
	cfg.CacheBuckets = 8 // force misses
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for addr := uint64(0); addr < 64; addr++ {
		if err := st.Write(addr, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	ss := st.Stats().Shards[0]
	if ss.CacheHits == 0 || ss.CacheMisses == 0 {
		t.Errorf("an 8-bucket cache served 64 writes with hits=%d misses=%d", ss.CacheHits, ss.CacheMisses)
	}
	if ss.Checkpoints < 1 {
		t.Errorf("CheckpointEvery=1 store reports %d checkpoints after 64 writes", ss.Checkpoints)
	}
	if ss.CheckpointBytes == 0 {
		t.Errorf("checkpointing store reports checkpoint_bytes=0 after %d checkpoints", ss.Checkpoints)
	}
	if ss.CheckpointNS == 0 {
		t.Errorf("checkpointing store reports checkpoint_ns=0 after %d checkpoints", ss.Checkpoints)
	}
	if ss.Recovery != "fresh" {
		t.Errorf("boot outcome %q, want fresh", ss.Recovery)
	}
}

// deltaFiles lists the shard's sealed chain elements in name (= sequence)
// order.
func deltaFiles(t *testing.T, shardDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, ".bin") {
			out = append(out, filepath.Join(shardDir, name))
		}
	}
	return out
}

// TestDeltaChainTamper pins the three fail-closed chain checks: a flipped
// byte inside a middle delta is caught by the seal's MAC (crypt.ErrAuthFailed),
// a deleted middle delta leaves a sequence hole (ErrChainGap), and swapping
// the contents of two deltas breaks the sealed-sequence / predecessor-hash
// binding (ErrChainOrder). A spliced, reordered, or truncated chain must
// refuse recovery rather than resurrect stale trusted state.
func TestDeltaChainTamper(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards = 1
	cfg.CheckpointMode = CheckpointDelta
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 16; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-0000")
	chain := deltaFiles(t, shardDir)
	if len(chain) < 4 {
		t.Fatalf("CheckpointEvery=1 delta store left %d chain elements after 16 writes, want >= 4", len(chain))
	}
	mid := chain[len(chain)/2]

	undo := flipByte(t, mid, -1)
	if _, err := New(cfg); !errors.Is(err, crypt.ErrAuthFailed) {
		t.Fatalf("boot over tampered delta: got %v, want ErrAuthFailed", err)
	}
	undo()

	saved, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, ErrChainGap) {
		t.Fatalf("boot over chain with a deleted middle delta: got %v, want ErrChainGap", err)
	}
	if err := os.WriteFile(mid, saved, 0o600); err != nil {
		t.Fatal(err)
	}

	other := chain[len(chain)/2-1]
	otherSaved, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mid, otherSaved, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, saved, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, ErrChainOrder) {
		t.Fatalf("boot over a chain with two deltas swapped: got %v, want ErrChainOrder", err)
	}
	if err := os.WriteFile(mid, saved, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, otherSaved, 0o600); err != nil {
		t.Fatal(err)
	}

	st, err = New(cfg)
	if err != nil {
		t.Fatalf("boot after undoing all tampering: %v", err)
	}
	defer st.Close()
	for addr := uint64(0); addr < 16; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d after chain recovery: %v %v", addr, got, err)
		}
	}
}

// TestDeltaCompaction drives a chain past an absurdly low compaction
// threshold and checks the chain is folded into a fresh base: at most one
// delta outlives each fold, stale elements are swept, and recovery through
// the compacted base still sees every write.
func TestDeltaCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards = 1
	cfg.CheckpointMode = CheckpointDelta
	cfg.DeltaCompactAfter = 1 // every delta trips the fold on the next checkpoint
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 32; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-0000")
	if chain := deltaFiles(t, shardDir); len(chain) > 1 {
		t.Fatalf("compact-after=1 chain holds %d deltas after close, want <= 1: %v", len(chain), chain)
	}
	if _, err := os.Stat(filepath.Join(shardDir, "base.bin")); err != nil {
		t.Fatalf("compacted store has no base: %v", err)
	}

	st, err = New(cfg)
	if err != nil {
		t.Fatalf("boot after compaction: %v", err)
	}
	defer st.Close()
	for addr := uint64(0); addr < 32; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d after compacted recovery: %v %v", addr, got, err)
		}
	}
}

// TestLegacyCheckpointMigration checks that a data dir written under the old
// single-file protocol (checkpoint.bin) boots under the chain protocol: the
// file is adopted as the sequence-0 base.
func TestLegacyCheckpointMigration(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards = 1
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 8; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-0000")
	if err := os.Rename(filepath.Join(shardDir, "base.bin"), filepath.Join(shardDir, "checkpoint.bin")); err != nil {
		t.Fatal(err)
	}
	st, err = New(cfg)
	if err != nil {
		t.Fatalf("boot over a legacy checkpoint.bin: %v", err)
	}
	defer st.Close()
	if ss := st.Stats().Shards[0]; ss.Recovery != "recovered" {
		t.Fatalf("legacy boot outcome %q, want recovered", ss.Recovery)
	}
	for addr := uint64(0); addr < 8; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d after legacy migration: %v %v", addr, got, err)
		}
	}
	if _, err := os.Stat(filepath.Join(shardDir, "checkpoint.bin")); !os.IsNotExist(err) {
		t.Fatalf("legacy checkpoint.bin still present after migration (stat err %v)", err)
	}
}

// TestFileStoreMMap runs a write/read/recover loop with mmap bucket reads
// enabled and checks the mapping actually serves reads (MMapReads > 0) while
// results stay correct — dirty cached pages must shadow the mapping.
func TestFileStoreMMap(t *testing.T) {
	if !pathoram.MMapSupported {
		t.Skip("mmap bucket reads unsupported on this platform")
	}
	cfg := fileStoreCfg(t.TempDir(), BackendFlat)
	cfg.Shards = 1
	cfg.MMap = true
	cfg.CacheBuckets = 8 // tiny cache so clean reads fall through to the mapping
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 64; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	for addr := uint64(0); addr < 64; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d through mmap store: %v %v", addr, got, err)
		}
	}
	if ss := st.Stats().Shards[0]; ss.MMapReads == 0 {
		t.Error("mmap-enabled store served no reads from the mapping")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = New(cfg)
	if err != nil {
		t.Fatalf("recovery with mmap enabled: %v", err)
	}
	defer st.Close()
	for addr := uint64(0); addr < 64; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d after mmap recovery: %v %v", addr, got, err)
		}
	}
}

// dirSnapshot reads every file under dir into a path → contents map.
func dirSnapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	snap := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		snap[path] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestartUnderDifferentShapeFailsClosed: the trusted state only fits the
// stack shape that captured it, so a data dir reopened under another preset
// or another recursion depth must be refused with an error naming both
// shapes, without touching a byte on disk, and must still recover under the
// config that wrote it.
func TestRestartUnderDifferentShapeFailsClosed(t *testing.T) {
	cases := []struct {
		name   string
		wrote  func(*Config)
		reopen func(*Config)
		want   [2]string // the two shapes the refusal must name
	}{
		{"flat as recursive",
			func(c *Config) { c.Backend = BackendFlat },
			func(c *Config) { c.Backend = BackendRecursive; c.Recursion = 1 },
			[2]string{"flat×0", "recursive×1"}},
		{"flat as batched",
			func(c *Config) { c.Backend = BackendFlat },
			func(c *Config) { c.Backend = BackendBatched },
			[2]string{"flat×0", "batched×0"}},
		{"recursive 2 as recursive 3",
			func(c *Config) { c.Backend = BackendRecursive; c.Recursion = 2 },
			func(c *Config) { c.Backend = BackendRecursive; c.Recursion = 3 },
			[2]string{"recursive×2", "recursive×3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := fileStoreCfg(dir, BackendFlat)
			cfg.Recursion = 0
			tc.wrote(&cfg)
			st, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for addr := uint64(0); addr < 32; addr++ {
				if err := st.Write(addr, []byte{byte(addr), 0xA5}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			before := dirSnapshot(t, dir)

			other := cfg
			tc.reopen(&other)
			if st, err := New(other); err == nil {
				st.Close()
				t.Fatal("data dir reopened under a different stack shape")
			} else if !strings.Contains(err.Error(), tc.want[0]) || !strings.Contains(err.Error(), tc.want[1]) {
				t.Fatalf("refusal %q does not name both shapes %v", err, tc.want)
			}
			after := dirSnapshot(t, dir)
			if len(after) != len(before) {
				t.Fatalf("refused boot changed the file set: %d files, was %d", len(after), len(before))
			}
			for path, raw := range before {
				if !bytes.Equal(after[path], raw) {
					t.Fatalf("refused boot modified %s", path)
				}
			}

			st, err = New(cfg)
			if err != nil {
				t.Fatalf("reopening under the original config after a refusal: %v", err)
			}
			defer st.Close()
			for addr := uint64(0); addr < 32; addr++ {
				got, err := st.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != byte(addr) || got[1] != 0xA5 {
					t.Fatalf("block %d reads %x after the refused boot", addr, got[:2])
				}
			}
		})
	}
}

// TestCheckpointCadenceCountsEverySlot drives a paced file-backed shard's
// slots by hand, once idle and once with a request queued at every slot. The
// disk must not tell the two apart: the same number of checkpoints after the
// same number of slots, and — because a dummy access dirties pages that
// RetainDirty pins until the next checkpoint — never more pinned pages than
// one cadence window of slots can dirty.
func TestCheckpointCadenceCountsEverySlot(t *testing.T) {
	const every, slots = 4, 42
	for _, backend := range []string{BackendFlat, BackendBatched} {
		ckpts := make(map[string]uint64)
		for _, load := range []string{"idle", "saturated"} {
			cfg := fileStoreCfg(t.TempDir(), backend)
			cfg.Shards, cfg.Unpaced, cfg.CheckpointEvery, cfg.CacheBuckets = 1, false, every, 4
			cfg = cfg.withDefaults()
			o, p, err := newStack(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := newShard(0, o, p, cfg, make(chan struct{}))
			if err != nil {
				t.Fatal(err)
			}
			// One slot dirties at most the paths it reads and rewrites at
			// each level: k fetches plus the eviction pass's paths.
			sc := cfg.stackConfig()
			perSlot := 0
			for _, g := range sc.Geometries() {
				perSlot += g.Levels * (sh.oram.BatchK() + sh.oram.Config().EvictPaths)
			}
			initial := sh.persist.ckpts // initialization cuts the first one
			for i := 0; i < slots; i++ {
				if load == "saturated" {
					sh.depth.Add(1)
					sh.queue <- &request{local: uint64(i) % sc.DataBlocks, resp: make(chan result, 1)}
				}
				if err := sh.slot(); err != nil {
					t.Fatal(err)
				}
				dirty := 0
				for _, fs := range sh.persist.stores {
					dirty += fs.DirtyCount()
				}
				if dirty > every*perSlot {
					t.Fatalf("%s/%s: %d dirty pages pinned after slot %d, want ≤ %d (one cadence window)",
						backend, load, dirty, i, every*perSlot)
				}
			}
			ckpts[load] = sh.persist.ckpts - initial
			sh.shutdownPersist()
		}
		if ckpts["idle"] != slots/every || ckpts["saturated"] != slots/every {
			t.Errorf("%s: %d checkpoints idle, %d saturated over %d slots, want %d both (every %d slots)",
				backend, ckpts["idle"], ckpts["saturated"], slots, slots/every, every)
		}
	}
}

// TestRecoverDataDirFromBeforeStackUnification boots data dirs written by
// the commit before pathoram.Stack existed (ba95740: separate ORAM /
// Recursive / Batched backends, ShardState carrying its own on-chip map
// copy) — one per preset, delta chains included. There is no checkpoint
// format version to refuse them by, so they must recover: every write reads
// back, and the dir keeps working through another close/reopen.
// testdata/datadir-ba95740 was written by that commit's server.New with the
// configs below (CheckpointEvery 8, 20 writes, clean Close).
func TestRecoverDataDirFromBeforeStackUnification(t *testing.T) {
	for _, p := range []struct {
		name, backend, mode string
		recursion           int
	}{
		{"flat", BackendFlat, CheckpointFull, 0},
		{"recursive", BackendRecursive, CheckpointDelta, 2},
		{"batched", BackendBatched, CheckpointDelta, 1},
	} {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "datadir-ba95740", p.name))); err != nil {
				t.Fatal(err)
			}
			cfg := Config{Shards: 1, Blocks: 64, BlockBytes: 32, Backend: p.backend, Recursion: p.recursion,
				Store: StoreFile, DataDir: dir, CheckpointEvery: 8, CheckpointMode: p.mode,
				QueueDepth: 16, Unpaced: true, Key: crypt.Key{42}}
			for boot := 0; boot < 2; boot++ {
				st, err := New(cfg)
				if err != nil {
					t.Fatalf("boot %d: %v", boot, err)
				}
				if got := st.Stats().Shards[0].Recovery; got != "recovered" {
					t.Errorf("boot %d outcome %q, want recovered", boot, got)
				}
				for addr := uint64(0); addr < 20; addr++ {
					got, err := st.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					want := []byte{byte(addr) + byte(boot), 0x5A, byte(len(p.name))}
					if !bytes.Equal(got[:3], want) {
						t.Fatalf("boot %d: block %d reads %x, want %x", boot, addr, got[:3], want)
					}
					want[0]++
					if err := st.Write(addr, want); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
