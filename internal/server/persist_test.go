package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
// backend kind: write, close, reopen (recovered), verify, write a second
// generation, close, reopen, verify both generations. Under "delta" the
// second and third boots recover through base + log; under "compact" the
// log folds into a fresh base.bin every other checkpoint; "sync" runs the
// same loop with an fsync at every checkpoint.
func TestFileStoreRoundTrip(t *testing.T) {
	modes := map[string]func(*Config){
		"delta":   func(*Config) {},
		"compact": func(c *Config) { c.DeltaCompactAfter = 1 },
		"sync":    func(c *Config) { c.Sync = "checkpoint" },
	}
	for mode, set := range modes {
		for _, backend := range []string{BackendFlat, BackendRecursive, BackendBatched} {
			t.Run(mode+"/"+backend, func(t *testing.T) {
				cfg := fileStoreCfg(t.TempDir(), backend)
				set(&cfg)
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
			// A wider cadence: fewer, padded log records.
			wideCfg := fileCfg
			wideCfg.DataDir = t.TempDir()
			wideCfg.CheckpointEvery = 8
			memRes, memTrace := run(memCfg)
			fileRes, fileTrace := run(fileCfg)
			wideRes, wideTrace := run(wideCfg)
			if len(memRes) != len(fileRes) || len(memRes) != len(wideRes) {
				t.Fatalf("op counts diverge: mem %d, file %d, cadence-8 file %d", len(memRes), len(fileRes), len(wideRes))
			}
			for i := range memRes {
				if (memRes[i].err == nil) != (fileRes[i].err == nil) {
					t.Fatalf("op %d error mismatch: mem %v, file %v", i, memRes[i].err, fileRes[i].err)
				}
				if !bytes.Equal(memRes[i].data, fileRes[i].data) {
					t.Fatalf("op %d result diverges between mem and file stores", i)
				}
				if (memRes[i].err == nil) != (wideRes[i].err == nil) || !bytes.Equal(memRes[i].data, wideRes[i].data) {
					t.Fatalf("op %d result diverges between mem and cadence-8 file stores", i)
				}
			}
			if backend == BackendBatched && !bytes.Equal(memTrace, fileTrace) {
				t.Fatalf("slot-signature traces diverge between mem and file stores:\nmem  %s\nfile %s", memTrace, fileTrace)
			}
			if backend == BackendBatched && !bytes.Equal(memTrace, wideTrace) {
				t.Fatalf("slot-signature traces diverge between mem and cadence-8 file stores:\nmem  %s\nwide %s", memTrace, wideTrace)
			}
		})
	}
}

// TestStoreConfigValidation covers the storage-tier Validate rules,
// including the RAM-store size cap that replaced the old constructor panic:
// each row is one config, refused with an error containing want, or
// accepted when want is empty.
func TestStoreConfigValidation(t *testing.T) {
	base := Config{Shards: 1, Blocks: 256, BlockBytes: 64, Z: 3}
	file := func(c *Config) { c.Store, c.DataDir = StoreFile, t.TempDir() }
	rows := []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"mem over the RAM cap", func(c *Config) { c.Blocks = 1 << 26 }, "RAM store"},
		{"file lifts the RAM cap", func(c *Config) { c.Blocks = 1 << 26; file(c) }, ""},
		{"mem with DataDir", func(c *Config) { c.DataDir = "/tmp/x" }, "DataDir"},
		{"mem with CheckpointEvery", func(c *Config) { c.CheckpointEvery = 1 }, "CheckpointEvery requires"},
		{"mem with CacheBuckets", func(c *Config) { c.CacheBuckets = 64 }, "CacheBuckets requires"},
		{"mem with Sync checkpoint", func(c *Config) { c.Sync = "checkpoint" }, "Sync \"checkpoint\" requires"},
		{"mem with Sync none", func(c *Config) { c.Sync = "none" }, ""},
		{"mem with DeltaCompactAfter", func(c *Config) { c.DeltaCompactAfter = 1 << 20 }, "DeltaCompactAfter requires"},
		{"file without DataDir", func(c *Config) { c.Store = StoreFile }, "requires a DataDir"},
		{"file with an unknown sync policy", func(c *Config) { file(c); c.Sync = "sometimes" }, "none | checkpoint"},
		{"file with Sync always", func(c *Config) { file(c); c.Sync = "always" }, "none | checkpoint"},
		{"file with a negative cadence", func(c *Config) { file(c); c.CheckpointEvery = -1 }, "CheckpointEvery must not be negative"},
		{"file with negative DeltaCompactAfter", func(c *Config) { file(c); c.DeltaCompactAfter = -1 }, "DeltaCompactAfter must not be negative"},
		{"unknown store kind", func(c *Config) { c.Store = "paper" }, "unknown Store"},
		{"file at cadence 8 with fsync", func(c *Config) { file(c); c.CheckpointEvery = 8; c.Sync = "checkpoint" }, ""},
	}
	for _, r := range rows {
		cfg := base
		r.set(&cfg)
		err := cfg.withDefaults().Validate()
		switch {
		case r.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", r.name, err)
		case r.want != "" && (err == nil || !strings.Contains(err.Error(), r.want)):
			t.Errorf("%s: got %v, want an error containing %q", r.name, err, r.want)
		}
	}

	cfg := base
	file(&cfg)
	cfg = cfg.withDefaults()
	if !cfg.Integrity {
		t.Fatal("the file store must force Integrity on")
	}
	if cfg.CheckpointEvery != 1 {
		t.Fatalf("file-store default cadence is %d, want 1 (durable acks)", cfg.CheckpointEvery)
	}
	if cfg.DeltaCompactAfter != 4<<20 {
		t.Fatalf("file-store default compaction threshold is %d, want %d", cfg.DeltaCompactAfter, 4<<20)
	}
}

// TestFileStoreDefaultCadenceDurableAcks: a file store given no cadence
// checkpoints every slot and acks a write only once its checkpoint landed,
// so a crash image of the data dir taken right after each ack recovers every
// acknowledged write.
func TestFileStoreDefaultCadenceDurableAcks(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards, cfg.CheckpointEvery = 1, 0
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Config().CheckpointEvery; got != 1 {
		t.Fatalf("file store without a cadence runs at %d, want 1", got)
	}
	for addr := uint64(0); addr < 8; addr++ {
		if err := st.Write(addr, []byte{byte(addr), 0x5A}); err != nil {
			t.Fatal(err)
		}
		crash := cfg
		crash.DataDir = t.TempDir()
		if err := os.CopyFS(crash.DataDir, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		rec, err := New(crash)
		if err != nil {
			t.Fatalf("boot from the crash image after write %d: %v", addr, err)
		}
		for a := uint64(0); a <= addr; a++ {
			if got, err := rec.Read(a); err != nil || got[0] != byte(a) || got[1] != 0x5A {
				t.Fatalf("acked block %d reads %v (%v) in the crash image after write %d", a, got, err, addr)
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreStats runs a write/read/recover loop over an 8-bucket page
// cache, so reads miss and reload from the bucket file, and checks that a
// file-backed store surfaces the storage-tier counters and checkpoint count
// through ShardStats.
func TestFileStoreStats(t *testing.T) {
	cfg := fileStoreCfg(t.TempDir(), BackendFlat)
	cfg.Shards = 1
	cfg.CacheBuckets = 8 // force misses
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 64; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
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
	for addr := uint64(0); addr < 64; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d through an 8-bucket cache: %v %v", addr, got, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = New(cfg)
	if err != nil {
		t.Fatalf("recovery over an 8-bucket cache: %v", err)
	}
	defer st.Close()
	if got := st.Stats().Shards[0].Recovery; got != "recovered" {
		t.Errorf("boot outcome after restart %q, want recovered", got)
	}
	for addr := uint64(0); addr < 64; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d after recovery: %v %v", addr, got, err)
		}
	}
}

// logRecords splits a shard's chain.log into its framed records.
func logRecords(t *testing.T, shardDir string) (image []byte, records [][]byte) {
	t.Helper()
	image, err := os.ReadFile(filepath.Join(shardDir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(image); {
		n := 4 + int(le.Uint32(image[off:]))
		records = append(records, image[off:off+n])
		off += n
	}
	return image, records
}

// writeLog replaces a shard's chain.log with records in the given order.
func writeLog(t *testing.T, shardDir string, records ...[]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(shardDir, logFile), bytes.Join(records, nil), 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaChainTamper pins the three fail-closed checks on the checkpoint
// log: a flipped byte inside a middle record is caught by the seal's MAC
// (crypt.ErrAuthFailed), a removed middle record leaves a sequence hole
// (ErrChainGap), and swapping two records, or splicing in the same-numbered
// record of another history under the same key, breaks the sequence /
// predecessor-tag binding (ErrChainOrder). A spliced, reordered, or
// truncated log must refuse recovery rather than resurrect stale trusted
// state — and the refusal must leave the files as they were.
func TestDeltaChainTamper(t *testing.T) {
	history := func(dir string, v byte) Config {
		cfg := fileStoreCfg(dir, BackendFlat)
		cfg.Shards = 1
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for addr := uint64(0); addr < 16; addr++ {
			if err := st.Write(addr, []byte{byte(addr) + v}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	dir := t.TempDir()
	cfg := history(dir, 0)
	shardDir := filepath.Join(dir, "shard-0000")
	image, recs := logRecords(t, shardDir)
	otherDir := t.TempDir()
	history(otherDir, 100)
	_, otherRecs := logRecords(t, filepath.Join(otherDir, "shard-0000"))
	if len(recs) < 4 {
		t.Fatalf("CheckpointEvery=1 store logged %d records after 16 writes, want >= 4", len(recs))
	}
	mid := len(recs) / 2
	others := func(skip int) [][]byte {
		return append(slices.Clone(recs[:skip]), recs[skip+1:]...)
	}
	boot := func(what string, want error) {
		t.Helper()
		before := dirSnapshot(t, dir)
		if _, err := New(cfg); !errors.Is(err, want) {
			t.Fatalf("boot over %s: got %v, want %v", what, err, want)
		}
		if !maps.EqualFunc(before, dirSnapshot(t, dir), bytes.Equal) {
			t.Fatalf("refused boot over %s modified the data dir", what)
		}
	}

	flipped := slices.Clone(recs[mid])
	flipped[len(flipped)/2] ^= 0x01
	writeLog(t, shardDir, append(append(slices.Clone(recs[:mid]), flipped), recs[mid+1:]...)...)
	boot("a tampered record", crypt.ErrAuthFailed)

	writeLog(t, shardDir, others(mid)...)
	boot("a log with a middle record removed", ErrChainGap)

	swapped := slices.Clone(recs)
	swapped[mid-1], swapped[mid] = swapped[mid], swapped[mid-1]
	writeLog(t, shardDir, swapped...)
	boot("a log with two records swapped", ErrChainOrder)

	spliced := slices.Clone(recs)
	spliced[mid] = otherRecs[mid]
	writeLog(t, shardDir, spliced...)
	boot("a log with another history's record spliced in", ErrChainOrder)

	writeLog(t, shardDir, image)
	st, err := New(cfg)
	if err != nil {
		t.Fatalf("boot after undoing all tampering: %v", err)
	}
	defer st.Close()
	for addr := uint64(0); addr < 16; addr++ {
		got, err := st.Read(addr)
		if err != nil || got[0] != byte(addr) {
			t.Fatalf("addr %d after log recovery: %v %v", addr, got, err)
		}
	}
}

// TestChainLogTornTail: a crash mid-append leaves a record cut short at the
// end of the log — a partial length prefix, or a body shorter than its
// prefix says. Its bucket pages were never flushed, so boot drops it and
// recovers to the record before, and at cadence 1 every acknowledged write
// is still there. A complete final record that fails its MAC is tampering,
// not a torn write, and fails closed.
func TestChainLogTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards = 1
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 24; addr++ {
		if err := st.Write(addr, []byte{byte(addr), 0x7E}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-0000")
	image, recs := logRecords(t, shardDir)
	last := recs[len(recs)-1]

	flipped := slices.Clone(last)
	flipped[len(flipped)-1] ^= 0x01
	writeLog(t, shardDir, append(slices.Clone(recs[:len(recs)-1]), flipped)...)
	if _, err := New(cfg); !errors.Is(err, crypt.ErrAuthFailed) {
		t.Fatalf("boot over a corrupted full-length tail record: got %v, want ErrAuthFailed", err)
	}

	// The shutdown checkpoint came right after the last slot's, so cutting
	// it loses nothing; the other tails are appends that never completed.
	torn := map[string][]byte{
		"last record cut mid-body": image[:len(image)-len(last)/2],
		"two bytes of a prefix":    append(slices.Clone(image), 0x10, 0x00),
		"prefix, half a body":      append(append(slices.Clone(image), le.AppendUint32(nil, 4096)...), make([]byte, 2048)...),
	}
	for name, tail := range torn {
		// Every case boots its own copy: recovery and the reads after it
		// move the bucket files on.
		caseCfg := cfg
		caseCfg.DataDir = t.TempDir()
		if err := os.CopyFS(caseCfg.DataDir, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		caseDir := filepath.Join(caseCfg.DataDir, "shard-0000")
		writeLog(t, caseDir, tail)
		st, err := New(caseCfg)
		if err != nil {
			t.Fatalf("%s: boot over a torn tail: %v", name, err)
		}
		for addr := uint64(0); addr < 24; addr++ {
			got, err := st.Read(addr)
			if err != nil || got[0] != byte(addr) || got[1] != 0x7E {
				t.Fatalf("%s: acked block %d reads %v after recovery (%v)", name, addr, got, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, recs := logRecords(t, caseDir); len(recs) == 0 {
			t.Fatalf("%s: the recovered log holds no records", name)
		}
	}
}

// TestDeltaCompaction drives the log past an absurdly low compaction
// threshold and checks it is folded into a fresh base: at most one record
// outlives each fold, and recovery through the compacted base still sees
// every write.
func TestDeltaCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards = 1
	cfg.DeltaCompactAfter = 1 // every record trips the fold on the next checkpoint
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
	if _, recs := logRecords(t, shardDir); len(recs) > 1 {
		t.Fatalf("compact-after=1 log holds %d records after close, want <= 1", len(recs))
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
					sh.queue <- &request{local: uint64(i) % sc.DataBlocks, resp: make(chan error, 1)}
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

// shardFiles lists a shard directory's file names and stats its chain.log.
func shardFiles(t *testing.T, dir string) ([]string, os.FileInfo) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	fi, err := os.Stat(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	return names, fi
}

// TestCheckpointRecordLength pins the public length of a log record's
// position-map section, and that steady-state checkpoints create no file.
// At cadence 8, whether each window's slots are all dummies, all hit one
// address, or all hit distinct addresses, the deepest level of every record
// carries exactly CheckpointEvery × max(1, BatchK) entries — one remap per
// fetched path — and every other level none, for each preset. A journal
// over that bound fails the slot, and no record is written for it.
func TestCheckpointRecordLength(t *testing.T) {
	const every, windows = 8, 3
	build := func(t *testing.T, backend string) *shard {
		cfg := fileStoreCfg(t.TempDir(), backend)
		cfg.Shards, cfg.Unpaced, cfg.CheckpointEvery = 1, false, every
		cfg = cfg.withDefaults()
		o, p, err := newStack(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := newShard(0, o, p, cfg, make(chan struct{}))
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	serve := func(t *testing.T, sh *shard, addrs func(slot, member int) (uint64, bool)) error {
		for i := 0; i < every*windows; i++ {
			for j := 0; j < sh.oram.BatchK(); j++ {
				if addr, ok := addrs(i, j); ok {
					sh.depth.Add(1)
					sh.queue <- &request{local: addr % sh.oram.Blocks(), resp: make(chan error, 1)}
				}
			}
			if err := sh.slot(); err != nil {
				return err
			}
		}
		return nil
	}
	loads := map[string]func(slot, member int) (uint64, bool){
		"all-dummy":    func(int, int) (uint64, bool) { return 0, false },
		"one-hot":      func(int, int) (uint64, bool) { return 5, true },
		"all-distinct": func(i, j int) (uint64, bool) { return uint64(i*8 + j), true },
	}
	for _, backend := range []string{BackendFlat, BackendRecursive, BackendBatched} {
		for load, addrs := range loads {
			sh := build(t, backend)
			files, logInfo := shardFiles(t, sh.persist.dir)
			if err := serve(t, sh, addrs); err != nil {
				t.Fatal(err)
			}
			// Steady-state checkpoints create no file: the same names, and
			// the same chain.log, appended to in place.
			if after, afterLog := shardFiles(t, sh.persist.dir); !slices.Equal(files, after) || !os.SameFile(logInfo, afterLog) {
				t.Fatalf("%s/%s: checkpoints changed the shard's files: %v -> %v", backend, load, files, after)
			}
			want := every * sh.oram.BatchK()
			image, err := os.ReadFile(filepath.Join(sh.persist.dir, logFile))
			if err != nil {
				t.Fatal(err)
			}
			sealed, end := splitLog(image)
			if len(sealed) != windows || end != len(image) {
				t.Fatalf("%s/%s: %d slots logged %d records (%d of %d bytes complete), want %d", backend, load, every*windows, len(sealed), end, len(image), windows)
			}
			for i, s := range sealed {
				r, err := sh.persist.openRecord(s)
				if err != nil {
					t.Fatal(err)
				}
				// Only the deepest tree keeps a position map.
				for level, ld := range r.delta.Levels {
					if owner := level == len(r.delta.Levels)-1; owner && ld.Bound != want || !owner && ld.Bound != 0 {
						t.Errorf("%s/%s: record %d level %d carries %d position-map entries, want %d on the deepest level and 0 elsewhere", backend, load, i, level, ld.Bound, want)
					}
				}
			}
			sh.shutdownPersist()
		}
	}

	sh := build(t, BackendFlat)
	defer sh.persist.closeStores()
	sh.persist.bound = every - 1
	logged := sh.persist.logSize
	if err := serve(t, sh, loads["all-distinct"]); !errors.Is(err, pathoram.ErrDeltaBound) {
		t.Fatalf("a window of %d distinct addresses under bound %d: got %v, want ErrDeltaBound", every, every-1, err)
	}
	if fi, err := os.Stat(filepath.Join(sh.persist.dir, logFile)); err != nil || fi.Size() != logged {
		t.Fatalf("the refused checkpoint changed the log (%v)", err)
	}
}

// TestRefuseOldFormatDataDir: a data dir written in an older checkpoint
// format — a gob-encoded base.bin, delta-NNNNNN.bin chain files, a single
// checkpoint.bin, or a base sealed as a TCORAMC1 or TCORAMC2 record — is
// refused for every preset with an error naming the format and the file,
// and left byte-identical.
func TestRefuseOldFormatDataDir(t *testing.T) {
	formats := []struct {
		name, file string // what the refusal must name
		make       func(t *testing.T, shardDir string, cfg Config)
	}{
		{"gob-encoded", "base.bin", func(t *testing.T, shardDir string, cfg Config) {
			var payload bytes.Buffer
			legacy := struct {
				Backend string
				Seq     uint64
				State   *pathoram.ShardState
			}{cfg.Backend, 0, &pathoram.ShardState{Levels: make([]pathoram.LevelState, 1)}}
			if err := gob.NewEncoder(&payload).Encode(legacy); err != nil {
				t.Fatal(err)
			}
			blob, err := crypt.Seal(crypt.NewCipher(cfg.Key, nil), payload.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(shardDir, "base.bin"), blob, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
		{"TCORAMC1", "base.bin", resealedUnder("TCORAMC1")},
		{"TCORAMC2", "base.bin", resealedUnder("TCORAMC2")},
		{"delta-000001.bin", "delta-000001.bin", func(t *testing.T, shardDir string, _ Config) {
			if err := os.WriteFile(filepath.Join(shardDir, "delta-000001.bin"), []byte("sealed delta"), 0o600); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint.bin", "checkpoint.bin", func(t *testing.T, shardDir string, _ Config) {
			if err := os.Rename(filepath.Join(shardDir, "base.bin"), filepath.Join(shardDir, "checkpoint.bin")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range []struct {
		name, backend string
		recursion     int
	}{
		{"flat", BackendFlat, 0},
		{"recursive", BackendRecursive, 2},
		{"batched", BackendBatched, 1},
	} {
		t.Run(p.name, func(t *testing.T) {
			for _, f := range formats {
				dir := t.TempDir()
				cfg := Config{Shards: 1, Blocks: 64, BlockBytes: 32, Backend: p.backend, Recursion: p.recursion,
					Store: StoreFile, DataDir: dir, CheckpointEvery: 8, QueueDepth: 16, Unpaced: true, Key: crypt.Key{42}}
				st, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for addr := uint64(0); addr < 20; addr++ {
					if err := st.Write(addr, []byte{byte(addr)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				f.make(t, filepath.Join(dir, "shard-0000"), cfg)
				before := dirSnapshot(t, dir)
				if st, err := New(cfg); err == nil {
					st.Close()
					t.Fatalf("%s: booted a data dir in an older format", f.name)
				} else if !errors.Is(err, ErrOldFormat) || !strings.Contains(err.Error(), f.name) || !strings.Contains(err.Error(), f.file) {
					t.Fatalf("%s: refusal %q is not ErrOldFormat naming the format and %s", f.name, err, f.file)
				}
				if !maps.EqualFunc(before, dirSnapshot(t, dir), bytes.Equal) {
					t.Fatalf("%s: the refused boot modified the data dir", f.name)
				}
			}
		})
	}
}

// resealedUnder rewrites a shard's base.bin as an older format sealed it:
// the same framing and header under the given record magic.
func resealedUnder(magic string) func(t *testing.T, shardDir string, cfg Config) {
	return func(t *testing.T, shardDir string, cfg Config) {
		path := filepath.Join(shardDir, "base.bin")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := crypt.OpenSealed(crypt.NewCipher(cfg.Key, nil), blob[4:])
		if err != nil {
			t.Fatal(err)
		}
		copy(payload, magic)
		sealed, err := crypt.Seal(crypt.NewCipher(cfg.Key, nil), payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(le.AppendUint32(nil, uint32(len(sealed))), sealed...), 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartCountDurableAtRecovery: a recovered shard must not re-draw its
// predecessor's leaves even when it crashes again before its first cadence
// checkpoint. Boot 1 recovers a cleanly closed cadence-64 store, a crash
// image of its data dir is taken before any slot, and boot 2 recovers that
// image. Both serve the same 16 reads; if the restart count boot 1 bumped
// only lived in memory, boot 2 re-seeds the same stream over the same
// recovered position map and re-draws every leaf.
func TestRestartCountDurableAtRecovery(t *testing.T) {
	const reads = 16
	dir := t.TempDir()
	cfg := fileStoreCfg(dir, BackendFlat)
	cfg.Shards, cfg.CheckpointEvery = 1, 64
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < reads; addr++ {
		if err := st.Write(addr, []byte{byte(addr)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	leaves := func(o *pathoram.Stack) []uint64 {
		var out []uint64
		for addr := uint64(0); addr < reads; addr++ {
			if _, err := o.Access(pathoram.OpRead, addr, nil); err != nil {
				t.Fatal(err)
			}
			leaf, _ := o.DataORAM().PositionOf(addr)
			out = append(out, leaf)
		}
		return out
	}

	o1, p1, err := newStack(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	crash := cfg
	crash.DataDir = t.TempDir()
	if err := os.CopyFS(crash.DataDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	first := leaves(o1)
	p1.closeStores()

	o2, p2, err := newStack(crash, 0)
	if err != nil {
		t.Fatalf("boot from the crash image: %v", err)
	}
	defer p2.closeStores()
	same := 0
	for i, leaf := range leaves(o2) {
		if leaf == first[i] {
			same++
		}
	}
	if same > reads/8 {
		t.Fatalf("boot 2 re-drew %d/%d of boot 1's leaves, want no more than chance", same, reads)
	}
}
