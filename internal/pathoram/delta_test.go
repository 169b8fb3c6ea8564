package pathoram

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"tcoram/internal/crypt"
)

// encodeState round-trips the stack's full state through the checkpoint
// encoding.
func encodeState(t *testing.T, s *Stack) *ShardState {
	t.Helper()
	b, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	st, rest, err := DecodeState(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decoding an encoded state: %v (%d bytes left over)", err, len(rest))
	}
	return st
}

// encodeDelta drains the stack's journals through the delta encoding.
func encodeDelta(t *testing.T, s *Stack, bound int) *ShardDelta {
	t.Helper()
	b, err := s.AppendDelta(nil, bound)
	if err != nil {
		t.Fatal(err)
	}
	d, rest, err := DecodeDelta(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decoding an encoded delta: %v (%d bytes left over)", err, len(rest))
	}
	return d
}

// TestCaptureDeltaRequiresTracking pins the fail-closed arming rule: without
// TrackDirty there is no journal to drain, and a delta capture must refuse
// rather than emit an empty delta that would corrupt a checkpoint chain.
func TestCaptureDeltaRequiresTracking(t *testing.T) {
	s, err := NewStack(flatStackConfig(64, 64), crypt.Key{1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIntegrity()
	if _, err := s.AppendDelta(nil, 4); !errors.Is(err, errNotTracking) {
		t.Fatalf("delta capture before TrackDirty: got %v, want errNotTracking", err)
	}
	s.TrackDirty()
	if _, err := s.Access(OpWrite, 1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	d := encodeDelta(t, s, 4)
	if len(d.Levels) != 1 || len(d.Levels[0].PosDense) != 1 {
		t.Fatalf("delta after one write carries %+v, want one position-map entry", d.Levels)
	}
	// The capture drained the journal: a second capture with no traffic in
	// between describes an empty change set, padded to the same bound.
	d2 := encodeDelta(t, s, 4)
	if n := len(d2.Levels[0].PosDense) + len(d2.Levels[0].PosOver); n != 0 || d2.Levels[0].Bound != 4 {
		t.Fatalf("second capture without traffic carries %d entries under bound %d", n, d2.Levels[0].Bound)
	}
}

// TestDeltaRoundTripFlat is the capture/apply equivalence loop for a flat
// stack on file storage: base capture, two delta captures, fold the deltas
// into the base (replaying the last one twice — application must be
// idempotent), recover, and require every write and counter back intact.
func TestDeltaRoundTripFlat(t *testing.T) {
	cfg := flatStackConfig(256, 64)
	key := crypt.Key{11}
	dir := t.TempDir()
	s, err := NewStackOn(cfg, key, rand.New(rand.NewSource(6)), testFileFactory(t, dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIntegrity()
	s.TrackDirty()
	buf := make([]byte, 64)
	write := func(addr uint64, v byte) {
		t.Helper()
		buf[0] = v
		if _, err := s.Access(OpWrite, addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < 64; a++ {
		write(a, byte(a))
	}
	base := encodeState(t, s)
	for a := uint64(0); a < 32; a++ {
		write(a, byte(a+100))
	}
	d1 := encodeDelta(t, s, 32)
	for a := uint64(32); a < 48; a++ {
		write(a, byte(a+200))
	}
	d2 := encodeDelta(t, s, 32)
	fs := s.DataORAM().Storage().(*FileStorage)
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	for _, d := range []*ShardDelta{d1, d2, d2} {
		if err := ApplyDelta(base, d, cfg.Geometries()); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(level int, g Geometry) (BucketStore, error) {
		return OpenFileStorage(g, FileStorageConfig{Path: dir + "/" + levelFileName(level)})
	}
	rec, err := RecoverStack(cfg, key, nil, reopen, base)
	if err != nil {
		t.Fatalf("recovering through base+deltas: %v", err)
	}
	if rec.Accesses != s.Accesses {
		t.Errorf("recovered access counter %d, want %d", rec.Accesses, s.Accesses)
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
// a batched recursive stack, whose deltas additionally carry per-level
// journals, tombstones and eviction-cadence counters.
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
	base := encodeState(t, b)
	for i := 100; i < 150; i++ {
		do(uint64(i%128), byte(i))
	}
	d1 := encodeDelta(t, b, 50*b.BatchK())
	for i := 150; i < 180; i++ {
		do(uint64(i%128), byte(i))
	}
	d2 := encodeDelta(t, b, 30*b.BatchK())
	for i, o := range b.rec.orams {
		fs := o.Storage().(*FileStorage)
		if err := fs.Flush(); err != nil {
			t.Fatalf("flushing level %d: %v", i, err)
		}
		fs.Close()
	}

	for _, d := range []*ShardDelta{d1, d2} {
		if err := ApplyDelta(base, d, b.Config().Geometries()); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(level int, g Geometry) (BucketStore, error) {
		return OpenFileStorage(g, FileStorageConfig{Path: dir + "/" + levelFileName(level)})
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
// a 2^20-block geometry, the encoded delta for a single access must be under
// 1% of a full checkpoint — O(dirty) against O(state). It also checks that
// folding that delta into the base reproduces a fresh full capture exactly,
// so the small encoding loses nothing.
func TestDeltaSizeODirty(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20-block geometry is slow; skipped with -short")
	}
	cfg := flatStackConfig(1<<20, 16)
	s, err := NewStack(cfg, crypt.Key{7}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIntegrity()
	s.TrackDirty()
	buf := make([]byte, 16)
	// Touch the last address so the dense position map spans all 2^20
	// entries, as it would after a full warm-up.
	if _, err := s.Access(OpWrite, (1<<20)-1, buf); err != nil {
		t.Fatal(err)
	}
	fullEnc, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullEnc) < 1<<20 {
		t.Fatalf("full checkpoint is only %d bytes; geometry too small to pin the O(dirty) claim", len(fullEnc))
	}
	full, _, err := DecodeState(fullEnc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Access(OpWrite, 12345, buf); err != nil {
		t.Fatal(err)
	}
	deltaEnc, err := s.AppendDelta(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltaEnc)*100 >= len(fullEnc) {
		t.Fatalf("one-access delta is %d bytes vs %d for a full checkpoint (%.2f%%), want < 1%%",
			len(deltaEnc), len(fullEnc), 100*float64(len(deltaEnc))/float64(len(fullEnc)))
	}
	d, _, err := DecodeDelta(deltaEnc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(full, d, cfg.Geometries()); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, fresh) {
		t.Fatal("base+delta diverges from a fresh full capture")
	}
}

// TestStateEncodingMatchesCapture pins the checkpoint encoding to the
// captured state it stands for, on a stack that exercises every section —
// position maps on three levels, a stash, tombstones and the deferred
// counters — and checks that every strict prefix of the encoding fails to
// decode instead of yielding a state.
func TestStateEncodingMatchesCapture(t *testing.T) {
	cfg := BatchedConfig{RecursiveConfig: RecursiveConfig{
		DataBlocks: 256, DataBlockBytes: 32, PosMapBlockBytes: 32, Z: 3, Recursion: 2,
	}}
	s, err := NewBatched(cfg, crypt.Key{21}, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIntegrity()
	for i := 0; i < 302; i++ {
		if err := s.AccessBatch([]BatchOp{{Addr: uint64(i*37) % 256, Fn: func(d []byte) { d[0]++ }}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.data.stale) == 0 || s.data.stash.Len() == 0 {
		t.Fatal("workload left no tombstones or no stash to encode")
	}
	enc, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded encoding differs from CaptureState")
	}
	// The captured form stays gob-encodable: the benchmark's pathoram probe
	// sizes it with gob.
	if err := gob.NewEncoder(io.Discard).Encode(want); err != nil {
		t.Fatalf("ShardState is no longer gob-encodable: %v", err)
	}
	again, err := s.AppendState(nil)
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("encoding the same state twice differs (%v)", err)
	}
	for n := 0; n < len(enc); n += 1 + n/16 {
		if _, _, err := DecodeState(enc[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte encoding decoded", n, len(enc))
		}
	}
}

// TestDeltaPaddedToBound pins the delta's public length: whether a window
// touched no address, one address again and again, or a distinct address per
// access, every level's section carries exactly the bound, and so the
// encodings are the same length. A journal over the bound is refused.
func TestDeltaPaddedToBound(t *testing.T) {
	const bound = 8
	cfg := StackConfig{RecursiveConfig: RecursiveConfig{
		DataBlocks: 256, DataBlockBytes: 32, PosMapBlockBytes: 32, Z: 3, Recursion: 1,
	}}
	s, err := NewStack(cfg, crypt.Key{22}, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIntegrity()
	s.TrackDirty()
	windows := map[string]func(i int) error{
		"all-dummy":    func(int) error { return s.DummyAccess() },
		"one-hot":      func(int) error { return s.Update(7, nil) },
		"all-distinct": func(i int) error { return s.Update(uint64(i*31)%256, nil) },
	}
	length := -1
	for name, op := range windows {
		for i := 0; i < bound; i++ {
			if err := op(i); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := s.AppendDelta(nil, bound)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, _, err := DecodeDelta(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i, ld := range d.Levels {
			if ld.Bound != bound {
				t.Errorf("%s: level %d section carries %d entries, want %d", name, i, ld.Bound, bound)
			}
		}
		if length >= 0 && len(enc) != length {
			t.Errorf("%s: delta is %d bytes, another window's was %d", name, len(enc), length)
		}
		length = len(enc)
	}
	for i := 0; i <= bound; i++ {
		if err := s.Update(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendDelta(nil, bound); !errors.Is(err, ErrDeltaBound) {
		t.Fatalf("a window of %d distinct addresses under bound %d: got %v, want ErrDeltaBound", bound+1, bound, err)
	}
}

// TestAppendDeltaZeroAllocs pins the steady-state checkpoint encoder of a
// classic stack, the top-cache flush it starts with included, at zero
// allocations once its buffer has grown. (A deferred stack's tombstone sort
// scratch still grows now and then, amortized.) The count is the least of
// three rounds of 100 encodings, each round started from runtime.GC(): the
// process-wide malloc counter also counts any other goroutine's allocation
// inside a measured call, and one such allocation must not fail the pin.
func TestAppendDeltaZeroAllocs(t *testing.T) {
	const settle, n, rounds = 200, 100, 3
	s, err := NewRecursive(RecursiveConfig{
		DataBlocks: 256, DataBlockBytes: 32, PosMapBlockBytes: 32, Z: 3, Recursion: 1,
	}, crypt.Key{23}, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIntegrity()
	s.TrackDirty()
	buf := make([]byte, 0, 64<<10)
	var addr uint64
	window := func() uint64 {
		for i := 0; i < 2; i++ {
			addr = (addr + 13) % 256
			if err := s.Update(addr, nil); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf, err = s.AppendDelta(buf[:0], 2*s.BatchK())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	for w := 0; w < settle; w++ {
		window()
	}
	least := ^uint64(0)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var allocs uint64
		for w := 0; w < n; w++ {
			allocs += window()
		}
		least = min(least, allocs)
	}
	if least != 0 {
		t.Fatalf("the least of %d rounds of %d steady-state delta encodings allocated %d times, want 0", rounds, n, least)
	}
}
