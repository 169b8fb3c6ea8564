package pathoram

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tcoram/internal/crypt"
)

func testKey(seed byte) crypt.Key {
	var k crypt.Key
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

func smallGeometry() Geometry {
	return Geometry{Levels: 6, Z: 3, BlockBytes: 64}
}

func newTestORAM(t *testing.T, g Geometry, seed int64) *ORAM {
	t.Helper()
	o, err := NewORAM(g, testKey(byte(seed)), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestGeometryMath(t *testing.T) {
	g := Geometry{Levels: 4, Z: 3, BlockBytes: 64}
	if g.Leaves() != 8 {
		t.Fatalf("Leaves() = %d, want 8", g.Leaves())
	}
	if g.Buckets() != 15 {
		t.Fatalf("Buckets() = %d, want 15", g.Buckets())
	}
	if g.Capacity() != 45 {
		t.Fatalf("Capacity() = %d, want 45", g.Capacity())
	}
	wantPlain := 3 * (BlockHeaderBytes + 64)
	if g.BucketPlainBytes() != wantPlain {
		t.Fatalf("BucketPlainBytes() = %d, want %d", g.BucketPlainBytes(), wantPlain)
	}
	if g.BucketCipherBytes() != wantPlain+crypt.NonceSize {
		t.Fatalf("BucketCipherBytes() = %d, want %d", g.BucketCipherBytes(), wantPlain+crypt.NonceSize)
	}
	if g.PathBytes() != 4*g.BucketCipherBytes() {
		t.Fatalf("PathBytes() = %d, want %d", g.PathBytes(), 4*g.BucketCipherBytes())
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Levels: 0, Z: 3, BlockBytes: 64},
		{Levels: 41, Z: 3, BlockBytes: 64},
		{Levels: 5, Z: 0, BlockBytes: 64},
		{Levels: 5, Z: 3, BlockBytes: 0},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate() accepted %+v", g)
		}
	}
	if err := smallGeometry().Validate(); err != nil {
		t.Fatalf("Validate() rejected valid geometry: %v", err)
	}
}

func TestNodeIndexRootAndLeaves(t *testing.T) {
	g := Geometry{Levels: 4, Z: 1, BlockBytes: 8}
	for leaf := uint64(0); leaf < g.Leaves(); leaf++ {
		if got := g.NodeIndex(leaf, 0); got != 0 {
			t.Fatalf("NodeIndex(%d, 0) = %d, want 0 (root)", leaf, got)
		}
		want := (uint64(1) << 3) - 1 + leaf
		if got := g.NodeIndex(leaf, 3); got != want {
			t.Fatalf("NodeIndex(%d, 3) = %d, want %d", leaf, got, want)
		}
	}
}

func TestPathIndicesParentChild(t *testing.T) {
	g := Geometry{Levels: 7, Z: 1, BlockBytes: 8}
	f := func(rawLeaf uint16) bool {
		leaf := uint64(rawLeaf) % g.Leaves()
		path := g.PathIndices(nil, leaf)
		if len(path) != g.Levels {
			return false
		}
		for i := 1; i < len(path); i++ {
			if (path[i]-1)/2 != path[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnPathMatchesNodeIndex(t *testing.T) {
	g := Geometry{Levels: 6, Z: 1, BlockBytes: 8}
	f := func(a16, b16 uint16, lvl8 uint8) bool {
		a := uint64(a16) % g.Leaves()
		b := uint64(b16) % g.Leaves()
		level := int(lvl8) % g.Levels
		return g.OnPath(a, b, level) == (g.NodeIndex(a, level) == g.NodeIndex(b, level))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryForBlocksCapacity(t *testing.T) {
	for _, n := range []uint64{1, 7, 64, 1000, 1 << 16, 1 << 24} {
		g := GeometryForBlocks(n, 3, 64)
		if g.Capacity() < n {
			t.Errorf("GeometryForBlocks(%d): capacity %d < n", n, g.Capacity())
		}
		// Not absurdly overprovisioned either (≤ 8x).
		if g.Capacity() > 8*n && n > 8 {
			t.Errorf("GeometryForBlocks(%d): capacity %d too large", n, g.Capacity())
		}
	}
}

func TestHeaderPackRoundTrip(t *testing.T) {
	f := func(addr uint64, leaf uint32) bool {
		a := addr & (1<<40 - 1)
		l := uint64(leaf) & (1<<24 - 1)
		var buf [8]byte
		packHeader(buf[:], a, l)
		ga, gl := unpackHeader(buf[:])
		return ga == a && gl == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketEncodeDecodeRoundTrip(t *testing.T) {
	g := smallGeometry()
	blocks := []Block{
		{Addr: 5, Leaf: 2, Data: bytes.Repeat([]byte{0xAA}, 64)},
		{Addr: 9, Leaf: 30, Data: bytes.Repeat([]byte{0xBB}, 64)},
	}
	plain := g.encodeBucket(blocks)
	if len(plain) != g.BucketPlainBytes() {
		t.Fatalf("encoded bucket is %d bytes, want %d", len(plain), g.BucketPlainBytes())
	}
	slotBytes := BlockHeaderBytes + g.BlockBytes
	for i := 0; i < g.Z; i++ {
		slot := plain[i*slotBytes : (i+1)*slotBytes]
		addr, leaf := unpackHeader(slot)
		if i >= len(blocks) {
			if addr != DummyAddr {
				t.Fatalf("padding slot %d holds address %#x, want a dummy", i, addr)
			}
			continue
		}
		if addr != blocks[i].Addr || leaf != blocks[i].Leaf || !bytes.Equal(slot[BlockHeaderBytes:], blocks[i].Data) {
			t.Fatalf("slot %d decodes to (%#x, %d), want %+v", i, addr, leaf, blocks[i])
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	o := newTestORAM(t, smallGeometry(), 1)
	data := bytes.Repeat([]byte{0x5A}, 64)
	if _, err := o.Access(OpWrite, 7, data); err != nil {
		t.Fatal(err)
	}
	got, err := o.Access(OpRead, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %x, want %x", got[:4], data[:4])
	}
}

func TestUnwrittenBlockReadsZero(t *testing.T) {
	o := newTestORAM(t, smallGeometry(), 2)
	got, err := o.Access(OpRead, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unwritten block read nonzero data")
	}
}

func TestManyBlocksFunctional(t *testing.T) {
	// Random writes and reads over many blocks: the ORAM must behave like
	// a RAM. Model the expected contents in a plain map.
	o := newTestORAM(t, Geometry{Levels: 8, Z: 3, BlockBytes: 16}, 3)
	rng := rand.New(rand.NewSource(99))
	model := make(map[uint64][]byte)
	numBlocks := uint64(120)
	for i := 0; i < 800; i++ {
		addr := uint64(rng.Int63n(int64(numBlocks)))
		if rng.Intn(2) == 0 {
			data := make([]byte, 16)
			rng.Read(data)
			if _, err := o.Access(OpWrite, addr, data); err != nil {
				t.Fatal(err)
			}
			model[addr] = data
		} else {
			got, err := o.Access(OpRead, addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := model[addr]
			if !ok {
				want = make([]byte, 16)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d read %x, want %x", i, addr, got, want)
			}
		}
	}
}

func TestPathInvariantHolds(t *testing.T) {
	// Path ORAM's invariant (§3): every mapped block is in the stash or on
	// the path to its assigned leaf. Checked after a batch of random ops.
	o := newTestORAM(t, Geometry{Levels: 7, Z: 3, BlockBytes: 16}, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		addr := uint64(rng.Int63n(60))
		if rng.Intn(2) == 0 {
			data := make([]byte, 16)
			rng.Read(data)
			if _, err := o.Access(OpWrite, addr, data); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.Access(OpRead, addr, nil); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if err := o.CheckInvariant(); err != nil {
				t.Fatalf("after op %d: %v", i, err)
			}
		}
	}
	if err := o.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestStashStaysBounded(t *testing.T) {
	// With Z=3 and ≤50% utilization the stash must stay small (the paper
	// budgets 128 KB; here we just require it not to grow linearly).
	o := newTestORAM(t, Geometry{Levels: 9, Z: 3, BlockBytes: 16}, 6)
	rng := rand.New(rand.NewSource(7))
	n := uint64(300) // well under capacity 3*(2^9-1) = 1533
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Int63n(int64(n)))
		if _, err := o.Access(OpWrite, addr, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	_, peak := o.StashOccupancy()
	if peak > 100 {
		t.Fatalf("peak stash occupancy %d; expected bounded (<100) for this load", peak)
	}
}

func TestRemapLeavesUniform(t *testing.T) {
	// After many accesses to one block, the sequence of assigned leaves
	// should be near-uniform: chi-square over leaf buckets.
	g := Geometry{Levels: 5, Z: 3, BlockBytes: 16} // 16 leaves
	o := newTestORAM(t, g, 8)
	counts := make([]int, g.Leaves())
	trials := 3200
	for i := 0; i < trials; i++ {
		if _, err := o.Access(OpRead, 1, nil); err != nil {
			t.Fatal(err)
		}
		leaf, ok := o.PositionOf(1)
		if !ok {
			t.Fatal("block 1 unmapped after access")
		}
		counts[leaf]++
	}
	expected := float64(trials) / float64(g.Leaves())
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; p=0.001 critical value ≈ 37.7.
	if chi2 > 37.7 {
		t.Fatalf("leaf distribution non-uniform: chi2 = %.1f (counts %v)", chi2, counts)
	}
}

func TestDummyAccessIndistinguishableBusShape(t *testing.T) {
	// A dummy access must touch the same number of buckets, in the same
	// read-then-write structure, as a real access (§1.1.2). Compare bus
	// traces structurally (bucket count per phase and root positions).
	o := newTestORAM(t, smallGeometry(), 9)
	o.TraceBus = true
	if _, err := o.Access(OpRead, 1, nil); err != nil {
		t.Fatal(err)
	}
	realTrace := append([]BusEvent(nil), o.BusTrace...)
	o.BusTrace = o.BusTrace[:0]
	if err := o.DummyAccess(); err != nil {
		t.Fatal(err)
	}
	dummyTrace := o.BusTrace
	if len(realTrace) != len(dummyTrace) {
		t.Fatalf("real access: %d bus events, dummy: %d", len(realTrace), len(dummyTrace))
	}
	for i := range realTrace {
		if realTrace[i].Write != dummyTrace[i].Write {
			t.Fatalf("event %d: real write=%v dummy write=%v", i, realTrace[i].Write, dummyTrace[i].Write)
		}
	}
	// Both must start at the root (bucket 0) for the read phase and end at
	// the root for the write phase.
	if realTrace[0].Bucket != 0 || dummyTrace[0].Bucket != 0 {
		t.Fatal("path read does not start at root")
	}
	if realTrace[len(realTrace)-1].Bucket != 0 || dummyTrace[len(dummyTrace)-1].Bucket != 0 {
		t.Fatal("path write does not end at root")
	}
}

func TestEveryAccessReencryptsRoot(t *testing.T) {
	// §3.2: every access rewrites the root bucket with probabilistic
	// encryption, so its raw bytes change — the probing attack's hook.
	o := newTestORAM(t, smallGeometry(), 10)
	st := o.Storage()
	before := st.Snapshot(0)
	if _, err := o.Access(OpRead, 1, nil); err != nil {
		t.Fatal(err)
	}
	afterReal := st.Snapshot(0)
	if bytes.Equal(before, afterReal) {
		t.Fatal("root bucket unchanged after real access")
	}
	if err := o.DummyAccess(); err != nil {
		t.Fatal(err)
	}
	afterDummy := st.Snapshot(0)
	if bytes.Equal(afterReal, afterDummy) {
		t.Fatal("root bucket unchanged after dummy access")
	}
}

func TestAccessRejectsBadInput(t *testing.T) {
	o := newTestORAM(t, smallGeometry(), 11)
	if _, err := o.Access(OpWrite, 1, make([]byte, 3)); err == nil {
		t.Fatal("Access accepted short write payload")
	}
	if _, err := o.Access(OpRead, DummyAddr, nil); err == nil {
		t.Fatal("Access accepted the dummy address")
	}
	// The position map has one entry per slot of the tree, and no more.
	if _, err := o.Access(OpRead, smallGeometry().Capacity(), nil); err == nil {
		t.Fatal("Access accepted an address at the tree's capacity")
	}
	if _, err := o.Access(OpRead, smallGeometry().Capacity()-1, nil); err != nil {
		t.Fatalf("Access refused the last address below capacity: %v", err)
	}
}

func TestIntegrityDetectsTampering(t *testing.T) {
	g := smallGeometry()
	o, err := NewORAM(g, testKey(12), rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	o.EnableIntegrity()
	if _, err := o.Access(OpWrite, 2, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// Tamper with the root bucket in untrusted memory.
	o.Storage().(*ByteStorage).Bytes()[3] ^= 0x40
	if _, err := o.Access(OpRead, 2, nil); err == nil {
		t.Fatal("tampered bucket passed integrity verification")
	}
}

func TestIntegrityAcceptsHonestOperation(t *testing.T) {
	o, err := NewORAM(smallGeometry(), testKey(13), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	o.EnableIntegrity()
	for i := 0; i < 50; i++ {
		if _, err := o.Access(OpWrite, uint64(i%7), make([]byte, 64)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	if err := o.DummyAccess(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrityMustPrecedeAccesses(t *testing.T) {
	o := newTestORAM(t, smallGeometry(), 14)
	if _, err := o.Access(OpRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EnableIntegrity after accesses did not panic")
		}
	}()
	o.EnableIntegrity()
}

// TestPlanPathEvictionRespectsPaths: a block goes only where its leaf
// shares the bucket's path — a leaf-0 block to the leaf bucket of the path
// to leaf 0, a leaf-7 block to the root — and the write-back empties the
// stash.
func TestPlanPathEvictionRespectsPaths(t *testing.T) {
	g := Geometry{Levels: 4, Z: 2, BlockBytes: 8}
	s := NewStash()
	s.Put(Block{Addr: 1, Leaf: 0, Data: make([]byte, 8)})
	s.Put(Block{Addr: 2, Leaf: 7, Data: make([]byte, 8)})
	var plan EvictPlan
	s.PlanPathEviction(g, 0, g.Z, &plan)
	for level, want := range [][]uint64{{2}, nil, nil, {1}} {
		var got []uint64
		for _, i := range plan.LevelBlocks(level) {
			got = append(got, s.BlockAt(i).Addr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("level %d takes %v, want %v", level, got, want)
		}
	}
	s.RemovePlanned(&plan)
	if s.Len() != 0 {
		t.Fatalf("stash still holds %d blocks", s.Len())
	}
}

func TestStashPutIgnoresDummies(t *testing.T) {
	s := NewStash()
	s.Put(Block{Addr: DummyAddr})
	if s.Len() != 0 {
		t.Fatal("stash stored a dummy block")
	}
}
