package pathoram

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	if len(d.Levels) != 1 || len(d.Levels[0].Pos) != 1 {
		t.Fatalf("delta after one write carries %+v, want one position-map entry", d.Levels)
	}
	// The capture drained the journal: a second capture with no traffic in
	// between describes an empty change set, padded to the same bound.
	d2 := encodeDelta(t, s, 4)
	if n := len(d2.Levels[0].Pos); n != 0 || d2.Levels[0].Bound != 4 {
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
		if err := ApplyDelta(base, d); err != nil {
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
		if err := ApplyDelta(base, d); err != nil {
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
	// The position map spans the whole tree from construction on, so one
	// access already makes the full checkpoint full-sized.
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
	if err := ApplyDelta(full, d); err != nil {
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
// the deepest tree's position map, empty sections on the two trees above
// it, a stash, tombstones and the deferred counters — and checks that every strict prefix of the encoding fails to
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
	if len(want.Levels[0].Stale) == 0 || len(want.Levels[0].Stash) == 0 {
		t.Fatal("workload left no tombstones or no stash to encode")
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

// TestBaseMapLengthIsPublic: a base record carries the deepest tree's whole
// position map, one 4-byte label per address that tree can hold
// (OnChipPosMapEntries), and no map for any other tree, however many
// addresses have been touched — touching one address and touching every
// address give the same sections — under either fetch policy.
func TestBaseMapLengthIsPublic(t *testing.T) {
	for _, c := range []struct{ recursion, batchK int }{{0, 0}, {2, 0}, {0, 4}, {2, 4}} {
		cfg := StackConfig{RecursiveConfig: RecursiveConfig{
			DataBlocks: 8192, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: c.recursion,
		}, BatchK: c.batchK}
		sections := func(touched uint64) []int {
			s, err := NewStack(cfg, crypt.Key{24}, rand.New(rand.NewSource(24)))
			if err != nil {
				t.Fatal(err)
			}
			s.EnableIntegrity()
			for a := uint64(0); a < touched; a += uint64(s.BatchK()) {
				var ops []BatchOp
				for b := a; b < min(a+uint64(s.BatchK()), touched); b++ {
					ops = append(ops, BatchOp{Addr: b})
				}
				if err := s.AccessBatch(ops); err != nil {
					t.Fatal(err)
				}
			}
			enc, err := s.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			st, _, err := DecodeState(enc)
			if err != nil {
				t.Fatal(err)
			}
			var lens []int
			for i, ls := range st.Levels {
				lens = append(lens, len(ls.Pos))
				// The section is the entry count, then each label in 4 bytes.
				sec := le.AppendUint32(nil, uint32(len(ls.Pos)))
				for _, l := range ls.Pos {
					sec = le.AppendUint32(sec, l)
				}
				if len(ls.Pos) > 0 && !bytes.Contains(enc, sec) {
					t.Errorf("%+v: level %d's map section is not %d 4-byte labels", c, i, len(ls.Pos))
				}
			}
			return lens
		}
		one, all := sections(1), sections(cfg.DataBlocks)
		if !slices.Equal(one, all) {
			t.Errorf("%+v: map sections hold %v entries after touching one address, %v after touching all", c, one, all)
		}
		for i, n := range all {
			want := 0
			if i == len(all)-1 {
				want = int(cfg.OnChipPosMapEntries())
			}
			if n != want {
				t.Errorf("%+v: level %d's map section holds %d entries, want %d", c, i, n, want)
			}
		}
	}
}

// TestRecoverRefusesMisshapenState: recovery restores trusted state only
// once it fits the tree it is restored into — a map only on the deepest
// tree and exactly as long as that tree's addresses, stash blocks inside
// their tree's addresses, tombstones only on a deferred data tree, each
// inside the tree and its Z slots.
func TestRecoverRefusesMisshapenState(t *testing.T) {
	base := RecursiveConfig{DataBlocks: 128, DataBlockBytes: 32, PosMapBlockBytes: 32, Z: 3, Recursion: 1}
	classic, deferred := StackConfig{RecursiveConfig: base}, StackConfig{RecursiveConfig: base, BatchK: 4}
	cases := []struct {
		name   string
		cfg    StackConfig
		mutate func(st *ShardState) // nil: the capture as taken, which must recover
	}{
		{"a sound capture", deferred, nil},
		{"a short map on the deepest tree", classic, func(st *ShardState) { st.Levels[1].Pos = st.Levels[1].Pos[1:] }},
		{"a map on the data tree", classic, func(st *ShardState) { st.Levels[0].Pos = []uint32{unassignedLabel} }},
		{"a data block past DataBlocks", classic, func(st *ShardState) {
			st.Levels[0].Stash = append(st.Levels[0].Stash, StashBlockState{Addr: base.DataBlocks, Data: make([]byte, base.DataBlockBytes)})
		}},
		{"a label block past the data tree's labels", classic, func(st *ShardState) {
			st.Levels[1].Stash = append(st.Levels[1].Stash, StashBlockState{Addr: base.DataBlocks / base.LabelsPerBlock(), Data: make([]byte, base.PosMapBlockBytes)})
		}},
		{"tombstones on a classic tree", classic, func(st *ShardState) { st.Levels[0].Stale = []StaleMask{{Bucket: 0, Mask: 1}} }},
		{"tombstones on a position-map tree", deferred, func(st *ShardState) { st.Levels[1].Stale = []StaleMask{{Bucket: 0, Mask: 1}} }},
		{"a tombstone past the last bucket", deferred, func(st *ShardState) {
			st.Levels[0].Stale = append(st.Levels[0].Stale, StaleMask{Bucket: deferred.Geometries()[0].Buckets(), Mask: 1})
		}},
		{"a tombstone past slot Z", deferred, func(st *ShardState) {
			st.Levels[0].Stale = append(st.Levels[0].Stale, StaleMask{Bucket: 0, Mask: 1 << base.Z})
		}},
	}
	for _, c := range cases {
		s, err := NewStack(c.cfg, crypt.Key{25}, rand.New(rand.NewSource(25)))
		if err != nil {
			t.Fatal(err)
		}
		s.EnableIntegrity()
		for a := uint64(0); a < 40; a++ {
			if err := s.Update(a*3%base.DataBlocks, nil); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if c.mutate != nil {
			c.mutate(st)
		}
		// The live stack's flushed stores match the captured roots.
		stores := func(level int, _ Geometry) (BucketStore, error) { return s.orams[level].store, nil }
		_, err = RecoverStack(c.cfg, crypt.Key{25}, nil, stores, st)
		if sound := c.mutate == nil; sound && err != nil {
			t.Fatalf("%s: refused: %v", c.name, err)
		} else if !sound && err == nil {
			t.Errorf("%s: recovered", c.name)
		}
	}
}

// TestRecoverRefusesBadStashBlock rebuilds one tree from hand-built trusted
// state whose stash names a block twice, names the dummy address, names an
// address or a leaf past the tree, and requires each to be refused with an
// error that names the block; the same state with two sound blocks
// recovers them in record order.
func TestRecoverRefusesBadStashBlock(t *testing.T) {
	g := Geometry{Levels: 4, Z: 3, BlockBytes: 16}
	blk := func(addr, leaf uint64) StashBlockState {
		return StashBlockState{Addr: addr, Leaf: leaf, Data: make([]byte, g.BlockBytes)}
	}
	for _, c := range []struct {
		name  string
		stash []StashBlockState
		want  string // "" means recovery must succeed
	}{
		{"two sound blocks", []StashBlockState{blk(5, 2), blk(9, 7)}, ""},
		{"a block listed twice", []StashBlockState{blk(5, 2), blk(9, 7), blk(5, 3)}, "0x5"},
		{"the dummy address", []StashBlockState{blk(5, 2), blk(DummyAddr, 0)}, fmt.Sprintf("%#x", DummyAddr)},
		{"an address past the tree", []StashBlockState{blk(g.Capacity(), 0)}, fmt.Sprintf("%#x", g.Capacity())},
		{"a leaf past the tree", []StashBlockState{blk(6, g.Leaves())}, "0x6"},
	} {
		store, err := NewByteStorage(g)
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]uint32, g.Capacity())
		for i := range pos {
			pos[i] = unassignedLabel
		}
		ls := &LevelState{Root: newMerkleTree(g, store).Root(), Pos: pos, LevelTail: LevelTail{Stash: c.stash}}
		o, err := recoverLevel(g, crypt.Key{51}, nil, store, ls, treeRole{blocks: g.Capacity(), owner: true})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want == "":
			if o.stash.Len() != 2 || o.stash.BlockAt(0).Addr != 5 || o.stash.BlockAt(1).Addr != 9 {
				t.Errorf("%s: recovered a stash of %d blocks, want blocks 5 and 9 in that order", c.name, o.stash.Len())
			}
		case err == nil:
			t.Errorf("%s: recovered", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name block %s", c.name, err, c.want)
		}
	}
}

// TestDeltaPaddedToBound pins the delta's public length: whether a window
// touched no address, one address again and again, or a distinct address per
// access, the deepest tree's section carries exactly the bound and every
// other tree's none, and so the encodings are the same length. A journal
// over the bound is refused.
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
			want := 0
			if i == len(d.Levels)-1 {
				want = bound
			}
			if ld.Bound != want {
				t.Errorf("%s: level %d section carries %d entries, want %d", name, i, ld.Bound, want)
			}
		}
		if length >= 0 && len(enc) != length {
			t.Errorf("%s: delta is %d bytes, another window's was %d", name, len(enc), length)
		}
		length = len(enc)
	}
	// Addresses one position-map block apart dirty one label each.
	for i := 0; i <= bound; i++ {
		if err := s.Update(uint64(i)*s.fan, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendDelta(nil, bound); !errors.Is(err, ErrDeltaBound) {
		t.Fatalf("a window of %d distinct addresses under bound %d: got %v, want ErrDeltaBound", bound+1, bound, err)
	}
}

// TestAppendDeltaZeroAllocs pins the steady-state checkpoint encoder, the
// top-cache flush it starts with included, at zero allocations once its
// buffer has grown: on a classic stack, and on a deferred one whose data
// tree holds live tombstones, encoded by one scan of its mask bytes. The
// count is the least of three rounds of 100 encodings, each round started
// from runtime.GC(): the process-wide malloc counter also counts any other
// goroutine's allocation inside a measured call, and one such allocation
// must not fail the pin.
func TestAppendDeltaZeroAllocs(t *testing.T) {
	shape := RecursiveConfig{DataBlocks: 256, DataBlockBytes: 32, PosMapBlockBytes: 32, Z: 3, Recursion: 1}
	for _, batchK := range []int{0, 4} {
		s, err := NewStack(StackConfig{RecursiveConfig: shape, BatchK: batchK}, crypt.Key{23}, rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		if least := deltaAllocs(t, s); least != 0 {
			t.Errorf("BatchK %d: the least of the rounds of steady-state delta encodings allocated %d times, want 0", batchK, least)
		}
	}
}

// deltaAllocs encodes windows of two updates each and returns the least
// allocation count over rounds of steady-state encodings.
func deltaAllocs(t *testing.T, s *Stack) uint64 {
	const settle, n, rounds = 200, 100, 3
	s.EnableIntegrity()
	s.TrackDirty()
	buf := make([]byte, 0, 64<<10)
	var addr uint64
	var err error
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
	if s.cfg.Deferred() && !slices.ContainsFunc(s.data.stale, func(m uint8) bool { return m != 0 }) {
		t.Fatal("the deferred stack holds no tombstones to encode")
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
	return least
}
