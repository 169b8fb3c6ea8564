package pathoram

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tcoram/internal/crypt"
)

func testFileFactory(t *testing.T, dir string, cache int) StorageFactory {
	t.Helper()
	return func(level int, g Geometry) (BucketStore, error) {
		return CreateFileStorage(g, FileStorageConfig{
			Path:         filepath.Join(dir, levelFileName(level)),
			CacheBuckets: cache,
		})
	}
}

// flatStackConfig is the Recursion = 0 classic stack whose one tree is
// GeometryForBlocks(blocks, 3, blockBytes) — the shape a state captured from
// a bare ORAM of that geometry recovers under.
func flatStackConfig(blocks uint64, blockBytes int) StackConfig {
	return StackConfig{RecursiveConfig: RecursiveConfig{DataBlocks: blocks, DataBlockBytes: blockBytes, PosMapBlockBytes: 32, Z: 3}}
}

func levelFileName(level int) string {
	return "level-" + string(rune('0'+level)) + ".oram"
}

// TestFileStorageMatchesByteStorage drives identically seeded ORAMs over a
// RAM store and a file store (with a cache far smaller than the tree, so
// eviction and reload paths are exercised) and requires identical results
// and identical adversary-visible bucket bytes. The ignored MMap option must
// change nothing, down to the StorageStats.
func TestFileStorageMatchesByteStorage(t *testing.T) {
	var stats []StorageStats
	for _, mmap := range []bool{false, true} {
		stats = append(stats, checkFileMatchesByteStorage(t, FileStorageConfig{
			Path:         filepath.Join(t.TempDir(), "buckets.oram"),
			CacheBuckets: 8,
			MMap:         mmap,
		}))
	}
	if stats[0] != stats[1] {
		t.Errorf("MMap changed the store's IO stats: %+v vs %+v", stats[0], stats[1])
	}
}

func checkFileMatchesByteStorage(t *testing.T, cfg FileStorageConfig) StorageStats {
	t.Helper()
	g := GeometryForBlocks(256, 3, 64)
	key := crypt.Key{1, 2, 3}
	mem, err := NewORAM(g, key, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CreateFileStorage(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	file, err := NewORAMOn(g, key, rand.New(rand.NewSource(7)), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	buf := make([]byte, g.BlockBytes)
	for i := 0; i < 200; i++ {
		addr := uint64(i*37) % 256
		buf[0], buf[1] = byte(i), byte(addr)
		if _, err := mem.Access(OpWrite, addr, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := file.Access(OpWrite, addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		addr := uint64(i*53) % 256
		a, err := mem.Access(OpRead, addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := file.Access(OpRead, addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("read %d: mem and file stores diverge", addr)
		}
	}
	for idx := uint64(0); idx < g.Buckets(); idx++ {
		if !bytes.Equal(mem.Storage().Snapshot(idx), file.Storage().Snapshot(idx)) {
			t.Fatalf("bucket %d bytes diverge between mem and file stores", idx)
		}
	}
	st := file.StorageStats()
	if st.CacheMisses == 0 || st.FileReads == 0 {
		t.Errorf("an 8-bucket cache over %d buckets recorded no misses (%+v)", g.Buckets(), st)
	}
	if mem.StorageStats() != (StorageStats{}) {
		t.Errorf("RAM store reported nonzero IO stats: %+v", mem.StorageStats())
	}
	return st
}

// TestFileGeometryMismatch pins the fail-fast on reopening a bucket file
// with different geometry flags.
func TestFileGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "buckets.oram")
	g := GeometryForBlocks(64, 3, 64)
	fs, err := CreateFileStorage(g, FileStorageConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	other := GeometryForBlocks(64, 4, 64)
	if _, err := OpenFileStorage(other, FileStorageConfig{Path: path}); !errors.Is(err, ErrFileGeometry) {
		t.Fatalf("opening with wrong geometry: got %v, want ErrFileGeometry", err)
	}
	if _, err := OpenFileStorage(g, FileStorageConfig{Path: path}); err != nil {
		t.Fatalf("reopening with matching geometry: %v", err)
	}
}

// TestCaptureRecoverBatched is the full trusted-state roundtrip at the
// pathoram layer: run a batched recursive stack on file storage, capture
// and flush, tear down, recover — every pre-capture write must read back
// intact through integrity verification, counters must survive, and the
// path invariant must hold before and after post-recovery traffic.
func TestCaptureRecoverBatched(t *testing.T) {
	cfg := BatchedConfig{RecursiveConfig: RecursiveConfig{
		DataBlocks: 128, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 1,
	}}
	key := crypt.Key{9}
	dir := t.TempDir()

	b, err := NewBatchedOn(cfg, key, rand.New(rand.NewSource(3)), testFileFactory(t, dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	b.EnableIntegrity()
	for i := 0; i < 150; i++ {
		i := i
		err := b.AccessBatch([]BatchOp{{Addr: uint64(i % 128), Fn: func(d []byte) { d[0] = byte(i) }}})
		if err != nil {
			t.Fatal(err)
		}
	}

	st, err := b.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range b.rec.orams {
		fs := o.Storage().(*FileStorage)
		if err := fs.Flush(); err != nil {
			t.Fatalf("flushing level %d: %v", i, err)
		}
		fs.Close()
	}

	reopen := func(level int, g Geometry) (BucketStore, error) {
		return OpenFileStorage(g, FileStorageConfig{Path: filepath.Join(dir, levelFileName(level))})
	}
	rec, err := RecoverStack(b.Config(), key, rand.New(rand.NewSource(99)), reopen, st)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Slots() != b.Slots() || rec.EvictPassCount() != b.EvictPassCount() {
		t.Errorf("recovered counters (slots %d, evicts %d) != captured (%d, %d)",
			rec.Slots(), rec.EvictPassCount(), b.Slots(), b.EvictPassCount())
	}
	if err := rec.CheckInvariant(); err != nil {
		t.Fatalf("recovered stack violates the path invariant: %v", err)
	}
	// Writes 0..149 hit addr i%128 with value byte(i): blocks below 22 were
	// overwritten by the second lap.
	for addr := uint64(0); addr < 128; addr++ {
		var got byte
		err := rec.AccessBatch([]BatchOp{{Addr: addr, Fn: func(d []byte) { got = d[0] }}})
		if err != nil {
			t.Fatalf("reading %d after recovery: %v", addr, err)
		}
		expect := byte(addr)
		if addr < 22 {
			expect = byte(addr + 128)
		}
		if got != expect {
			t.Fatalf("block %d reads %d after recovery, want %d", addr, got, expect)
		}
	}
	if err := rec.CheckInvariant(); err != nil {
		t.Fatalf("post-recovery traffic violates the path invariant: %v", err)
	}
}

// TestRecoverRootMismatch flips one byte of the persisted bucket file and
// requires recovery to fail closed with ErrRootMismatch.
func TestRecoverRootMismatch(t *testing.T) {
	g := GeometryForBlocks(64, 3, 64)
	key := crypt.Key{5}
	dir := t.TempDir()
	path := filepath.Join(dir, "level-0.oram")
	fs, err := CreateFileStorage(g, FileStorageConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewORAMOn(g, key, rand.New(rand.NewSource(4)), fs)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableIntegrity()
	if _, err := o.Access(OpWrite, 3, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st, err := o.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	reopen := func(level int, gg Geometry) (BucketStore, error) {
		return OpenFileStorage(gg, FileStorageConfig{Path: path})
	}
	if _, err := RecoverStack(flatStackConfig(64, 64), key, nil, reopen, st); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("recovery over a tampered bucket file: got %v, want ErrRootMismatch", err)
	}
}

// TestRetainDirtyPinsFile checks the checkpoint protocol's core storage
// invariant: with RetainDirty on, no write reaches the file between Flush
// calls even under cache pressure.
func TestRetainDirtyPinsFile(t *testing.T) {
	g := GeometryForBlocks(256, 3, 64)
	path := filepath.Join(t.TempDir(), "buckets.oram")
	fs, err := CreateFileStorage(g, FileStorageConfig{Path: path, CacheBuckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewORAMOn(g, crypt.Key{8}, rand.New(rand.NewSource(2)), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.RetainDirty(true)
	wrote := fs.Stats().FileWrites
	for i := 0; i < 50; i++ {
		if _, err := o.Access(OpWrite, uint64(i)%200, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Stats().FileWrites; got != wrote {
		t.Fatalf("RetainDirty leaked %d file writes between flushes", got-wrote)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("bucket file changed while dirty pages were pinned")
	}
	if fs.DirtyCount() == 0 {
		t.Fatal("no dirty pages accumulated")
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	if fs.DirtyCount() != 0 {
		t.Fatalf("%d dirty pages survived Flush", fs.DirtyCount())
	}
	fs.Close()
}

// TestFileStorageSteadyStateZeroAllocs pins the page cache's recycling: once
// the cache is full, a miss takes over the evicted page's buffer and list
// element, and Flush and AppendDirty order the dirty list in place, so a
// stream of misses, writes, redo encodings and flushes allocates nothing.
// Flush clears the dirty list only after every page reached the file, and
// DecodeRedo reads back exactly what AppendDirty wrote.
func TestFileStorageSteadyStateZeroAllocs(t *testing.T) {
	g := GeometryForBlocks(256, 3, 64)
	fs, err := CreateFileStorage(g, FileStorageConfig{Path: filepath.Join(t.TempDir(), "buckets.oram"), CacheBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := NewORAMOn(g, crypt.Key{3}, rand.New(rand.NewSource(3)), fs); err != nil {
		t.Fatal(err)
	}
	fs.RetainDirty(true)
	ct := make([]byte, g.BucketCipherBytes())
	redo := make([]byte, 0, 8<<10)
	var idx uint64
	round := func() {
		for i := 0; i < 4; i++ {
			idx = (idx + 37) % g.Buckets()
			fs.ReadBucket(idx)
			ct[0] = byte(idx)
			fs.WriteBucket((idx+1)%g.Buckets(), ct)
		}
		redo = fs.AppendDirty(redo[:0])
		if err := fs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if allocs := allocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of misses, writes, redo and flush allocates %v, want 0", allocs)
	}
	if misses := fs.Stats().CacheMisses; misses < 400 {
		t.Fatalf("only %d misses: the cache is not being exercised", misses)
	}

	for i := 0; i < 3; i++ {
		idx = (idx + 37) % g.Buckets()
		ct[0] = byte(i)
		fs.WriteBucket(idx, ct)
	}
	got, rest, err := DecodeRedo(fs.AppendDirty(nil))
	if err != nil || len(rest) != 0 || len(got) != 3 {
		t.Fatalf("redo of 3 dirty pages decodes to %d records, %d bytes left, %v", len(got), len(rest), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Idx >= got[i].Idx {
			t.Fatalf("redo not in ascending bucket order: %d then %d", got[i-1].Idx, got[i].Idx)
		}
	}
	for _, r := range got {
		if !bytes.Equal(r.Ciphertext, fs.ReadBucket(r.Idx)) {
			t.Fatalf("redo for bucket %d differs from the cached page", r.Idx)
		}
	}
}
