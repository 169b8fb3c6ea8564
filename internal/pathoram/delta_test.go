package pathoram

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"tcoram/internal/crypt"
)

// gobSize measures the serialized size of a captured state or delta the same
// way the server's checkpoint path does (gob before sealing); the seal adds
// only constant overhead, so relative size claims transfer.
func gobSize(t *testing.T, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestCaptureDeltaRequiresTracking pins the fail-closed arming rule: without
// TrackDirty there is no journal to drain, and CaptureDelta must refuse
// rather than emit an empty delta that would corrupt a checkpoint chain.
func TestCaptureDeltaRequiresTracking(t *testing.T) {
	g := GeometryForBlocks(64, 3, 64)
	o, err := NewORAM(g, crypt.Key{1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	o.EnableIntegrity()
	if _, err := o.CaptureDelta(); err == nil {
		t.Fatal("CaptureDelta before TrackDirty must fail")
	}
	o.TrackDirty()
	if _, err := o.Access(OpWrite, 1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	d, err := o.CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Levels) != 1 || len(d.Levels[0].PosDense) == 0 {
		t.Fatalf("delta after one write carries no position-map entries: %+v", d)
	}
	// The capture drained the journal: a second capture with no traffic in
	// between describes an empty change set.
	d2, err := o.CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Levels[0].PosDense)+len(d2.Levels[0].PosOver) != 0 {
		t.Fatalf("second capture without traffic still carries %d+%d posmap entries",
			len(d2.Levels[0].PosDense), len(d2.Levels[0].PosOver))
	}
}

// TestDeltaRoundTripFlat is the capture/apply equivalence loop for a flat
// ORAM on file storage: base capture, two delta captures, fold the deltas
// into the base (replaying the last one twice — application must be
// idempotent), recover, and require every write and counter back intact.
func TestDeltaRoundTripFlat(t *testing.T) {
	g := GeometryForBlocks(256, 3, 64)
	key := crypt.Key{11}
	dir := t.TempDir()
	path := filepath.Join(dir, "level-0.oram")
	fs, err := CreateFileStorage(g, FileStorageConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewORAMOn(g, key, rand.New(rand.NewSource(6)), fs)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableIntegrity()
	o.TrackDirty()
	buf := make([]byte, 64)
	write := func(addr uint64, v byte) {
		t.Helper()
		buf[0] = v
		if _, err := o.Access(OpWrite, addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < 64; a++ {
		write(a, byte(a))
	}
	base, err := o.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 32; a++ {
		write(a, byte(a+100))
	}
	d1, err := o.CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(32); a < 48; a++ {
		write(a, byte(a+200))
	}
	d2, err := o.CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	for _, d := range []*ShardDelta{d1, d2, d2} {
		if err := ApplyDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(level int, gg Geometry) (BucketStore, error) {
		return OpenFileStorage(gg, FileStorageConfig{Path: path})
	}
	rec, err := RecoverStack(flatStackConfig(256, 64), key, nil, reopen, base)
	if err != nil {
		t.Fatalf("recovering through base+deltas: %v", err)
	}
	if rec.Accesses != o.Accesses {
		t.Errorf("recovered access counter %d, want %d", rec.Accesses, o.Accesses)
	}
	for a := uint64(0); a < 64; a++ {
		want := byte(a)
		switch {
		case a < 32:
			want = byte(a + 100)
		case a < 48:
			want = byte(a + 200)
		}
		got, err := rec.Access(OpRead, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("block %d reads %d through base+deltas, want %d", a, got[0], want)
		}
	}
}

// TestDeltaRoundTripBatched runs the same loop through the deepest backend:
// a batched recursive stack, whose deltas additionally carry on-chip map
// entries, per-level journals, tombstones and eviction-cadence counters.
func TestDeltaRoundTripBatched(t *testing.T) {
	cfg := BatchedConfig{RecursiveConfig: RecursiveConfig{
		DataBlocks: 128, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 1,
	}}
	key := crypt.Key{13}
	dir := t.TempDir()
	b, err := NewBatchedOn(cfg, key, rand.New(rand.NewSource(3)), testFileFactory(t, dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	b.EnableIntegrity()
	b.TrackDirty()
	do := func(addr uint64, v byte) {
		t.Helper()
		err := b.AccessBatch([]BatchOp{{Addr: addr, Fn: func(d []byte) { d[0] = v }}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		do(uint64(i%128), byte(i))
	}
	base, err := b.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		do(uint64(i%128), byte(i))
	}
	d1, err := b.CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	for i := 150; i < 180; i++ {
		do(uint64(i%128), byte(i))
	}
	d2, err := b.CaptureDelta()
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

	if err := ApplyDelta(base, d1); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(base, d2); err != nil {
		t.Fatal(err)
	}
	reopen := func(level int, g Geometry) (BucketStore, error) {
		return OpenFileStorage(g, FileStorageConfig{Path: filepath.Join(dir, levelFileName(level))})
	}
	rec, err := RecoverStack(b.Config(), key, rand.New(rand.NewSource(99)), reopen, base)
	if err != nil {
		t.Fatalf("recovering through base+deltas: %v", err)
	}
	if rec.Slots() != b.Slots() || rec.EvictPassCount() != b.EvictPassCount() {
		t.Errorf("recovered counters (slots %d, evicts %d) != live (%d, %d)",
			rec.Slots(), rec.EvictPassCount(), b.Slots(), b.EvictPassCount())
	}
	if err := rec.CheckInvariant(); err != nil {
		t.Fatalf("recovered stack violates the path invariant: %v", err)
	}
	// Address a was last written by op i = a+128 when a < 52, else i = a.
	for addr := uint64(0); addr < 128; addr++ {
		var got byte
		err := rec.AccessBatch([]BatchOp{{Addr: addr, Fn: func(d []byte) { got = d[0] }}})
		if err != nil {
			t.Fatalf("reading %d after recovery: %v", addr, err)
		}
		expect := byte(addr)
		if addr < 52 {
			expect = byte(addr + 128)
		}
		if got != expect {
			t.Fatalf("block %d reads %d through base+deltas, want %d", addr, got, expect)
		}
	}
	if err := rec.CheckInvariant(); err != nil {
		t.Fatalf("post-recovery traffic violates the path invariant: %v", err)
	}
}

// TestDeltaSizeODirty is the scaling pin behind the whole delta protocol: at
// a 2^20-block geometry, the serialized delta for a single access must be
// under 1% of a full checkpoint — O(dirty) against O(state). It also checks
// that folding that delta into the base reproduces a fresh full capture
// exactly, so the small encoding loses nothing.
func TestDeltaSizeODirty(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20-block geometry is slow; skipped with -short")
	}
	g := GeometryForBlocks(1<<20, 3, 16)
	o, err := NewORAM(g, crypt.Key{7}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	o.EnableIntegrity()
	o.TrackDirty()
	buf := make([]byte, 16)
	// Touch the last address so the dense position map spans all 2^20
	// entries, as it would after a full warm-up.
	if _, err := o.Access(OpWrite, (1<<20)-1, buf); err != nil {
		t.Fatal(err)
	}
	full, err := o.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := gobSize(t, full)
	if fullBytes < 1<<20 {
		t.Fatalf("full checkpoint is only %d bytes; geometry too small to pin the O(dirty) claim", fullBytes)
	}
	if _, err := o.Access(OpWrite, 12345, buf); err != nil {
		t.Fatal(err)
	}
	d, err := o.CaptureDelta()
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes := gobSize(t, d)
	if deltaBytes*100 >= fullBytes {
		t.Fatalf("one-access delta is %d bytes vs %d for a full checkpoint (%.2f%%), want < 1%%",
			deltaBytes, fullBytes, 100*float64(deltaBytes)/float64(fullBytes))
	}
	if err := ApplyDelta(full, d); err != nil {
		t.Fatal(err)
	}
	fresh, err := o.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, fresh) {
		t.Fatal("base+delta diverges from a fresh full capture")
	}
}
