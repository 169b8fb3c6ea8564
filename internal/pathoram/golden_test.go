package pathoram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
)

// TestAdversaryViewGolden pins everything a change to the controller's data
// structures must leave alone: after a seeded mix of real and dummy
// accesses it hashes, tree by tree, every bucket ciphertext in the untrusted
// store, the plaintext of the cached top, and every stash block (address,
// leaf and payload, in slot order), and it compares each tree's stash peak.
// Eviction choices, bucket contents and stash trajectories all feed these
// values, so a refactor that claims to change only how the controller finds
// its blocks must reproduce them exactly. The constants were taken before
// the stash lost its address map; keyed leaf randomness will change every
// one of them and must re-pin them deliberately.
func TestAdversaryViewGolden(t *testing.T) {
	shape := RecursiveConfig{DataBlocks: 8192, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3}
	rec := shape
	rec.Recursion = 2
	for _, c := range []struct {
		name      string
		cfg       StackConfig
		integrity bool
		ops       int
		digest    string
		peaks     []int
	}{
		{"flat", StackConfig{RecursiveConfig: shape}, false, 30000,
			"72cd85a1174216030c773b2d11b646548a2e9d79a0fd6a3344261998be0e80d3", []int{29}},
		{"recursive-merkle", StackConfig{RecursiveConfig: rec}, true, 20000,
			"cfba418c86bf639c61150f783ebae97a494ffd28c4735da0e4ef6b631ffc86a3", []int{27, 30, 23}},
		{"batched-r0", StackConfig{RecursiveConfig: shape, BatchK: 4, EvictEvery: 4}, false, 10000,
			"37b259dc4ce6fd25a87f2193a47a85acb45468ece37c0220177cf23bee782d9d", []int{28}},
		{"batched-r2", StackConfig{RecursiveConfig: rec, BatchK: 4, EvictEvery: 4}, false, 6000,
			"1d1d154d8421a3b3a8dd10a13a26157cc6c3ab2a5d5784343c731006257b19d8", []int{23, 31, 24}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewStack(c.cfg, testKey(51), rand.New(rand.NewSource(51)))
			if err != nil {
				t.Fatal(err)
			}
			if c.integrity {
				s.EnableIntegrity()
			}
			driveMixed(t, s, c.ops, rand.New(rand.NewSource(7)))
			if err := s.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			digest, peaks := adversaryView(s)
			if digest != c.digest || !slices.Equal(peaks, c.peaks) {
				t.Errorf("after %d slots: digest %s, stash peaks %v; want %s, %v", c.ops, digest, peaks, c.digest, c.peaks)
			}
		})
	}
}

// driveMixed serves slots seeded slots on s: writes and read-modify-writes
// of uniform addresses, repeated touches of a 16-block hot set, and dummy
// slots. A deferred stack gets batches of 0..BatchK ops, duplicates
// included.
func driveMixed(t *testing.T, s *Stack, slots int, rng *rand.Rand) {
	t.Helper()
	n := s.Blocks()
	addr := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Intn(16)) * 97 % n
		}
		return uint64(rng.Int63n(int64(n)))
	}
	write := func(d []byte) { rng.Read(d) }
	bump := func(d []byte) { d[0]++ }
	ops := make([]BatchOp, s.BatchK())
	for i := 0; i < slots; i++ {
		var err error
		switch k := rng.Intn(8); {
		case s.Config().Deferred():
			m := rng.Intn(len(ops) + 1)
			for j := range ops[:m] {
				ops[j] = BatchOp{Addr: addr(), Fn: bump}
				if rng.Intn(2) == 0 {
					ops[j].Fn = write
				}
			}
			err = s.AccessBatch(ops[:m])
		case k < 3:
			err = s.Update(addr(), write)
		case k < 6:
			err = s.Update(addr(), bump)
		default:
			err = s.DummyAccess()
		}
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
}

// adversaryView hashes each tree's store bytes, cached top and stash blocks
// in slot order, and lists each tree's stash peak.
func adversaryView(s *Stack) (string, []int) {
	h := sha256.New()
	var peaks []int
	var hdr [16]byte
	for _, o := range s.orams {
		h.Write(o.store.(*ByteStorage).Bytes())
		h.Write(o.top)
		for _, b := range o.stash.blocks {
			binary.LittleEndian.PutUint64(hdr[:8], b.Addr)
			binary.LittleEndian.PutUint64(hdr[8:], b.Leaf)
			h.Write(hdr[:])
			h.Write(b.Data)
		}
		peaks = append(peaks, o.stash.MaxOccupancy())
	}
	return hex.EncodeToString(h.Sum(nil)), peaks
}
