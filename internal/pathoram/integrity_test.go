package pathoram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refUpdate is the reference integrity update: record the rewritten bucket,
// then re-hash every ancestor up to the root. writePath's one-pass rehash
// must leave every node exactly as this leaves it. It costs L(L+1)/2 subtree
// hashes per rewritten path where rehash costs L.
func (m *merkleTree) refUpdate(idx uint64, ciphertext []byte) {
	m.setDigest(idx, ciphertext)
	m.recomputeSubtree(idx)
	for idx != 0 {
		idx = (idx - 1) / 2
		m.recomputeSubtree(idx)
	}
}

// refTrees shadows every level of a stack with a Merkle tree kept by
// refUpdate, fed from each level's bus trace: every bucket write the stack
// makes is replayed, in order, into the reference.
type refTrees struct {
	s     *Stack
	trees []*merkleTree
}

// newRefTrees starts the shadow trees from the stack's current stores; it
// must run after EnableIntegrity and before the accesses it shadows.
func newRefTrees(s *Stack) *refTrees {
	r := &refTrees{s: s}
	for _, o := range s.orams {
		o.TraceBus = true
		o.BusTrace = o.BusTrace[:0]
		r.trees = append(r.trees, newMerkleTree(o.geom, o.store))
	}
	return r
}

// sync replays the bucket writes made since the last sync and returns, per
// level, the hashes the reference algorithm would have spent on them plus
// the path verifications both algorithms make on reads.
func (r *refTrees) sync() (hashes []uint64) {
	for i, o := range r.s.orams {
		m := r.trees[i]
		before := m.hashes
		var reads uint64
		for _, ev := range o.BusTrace {
			if ev.Write {
				m.refUpdate(ev.Bucket, o.store.ReadBucket(ev.Bucket))
			} else {
				reads++
			}
		}
		o.BusTrace = o.BusTrace[:0]
		hashes = append(hashes, m.hashes-before+reads)
	}
	return hashes
}

// check requires every level's hash tree to equal its reference node for
// node, and, when rebuild is set, a fresh newMerkleTree over the store too.
// Between flushes the cached top's subtree hashes still describe the store
// as the last flush left it, while the reference climbed through them on
// every write; so unless the top was just flushed (and the flush replayed by
// sync), only the subtree hashes below the cached top are compared.
func (r *refTrees) check(t *testing.T, step int, flushed, rebuild bool) {
	t.Helper()
	for i, o := range r.s.orams {
		from := uint64(0)
		if !flushed {
			from = uint64(1)<<o.topLevels - 1
		}
		if !slices.Equal(o.integrity.subtree[from:], r.trees[i].subtree[from:]) || !slices.Equal(o.integrity.digest, r.trees[i].digest) {
			t.Fatalf("step %d, level %d: hash tree differs from the climbing reference (root %x, reference %x)",
				step, i, o.integrity.Root(), r.trees[i].Root())
		}
		if rebuild {
			if fresh := newMerkleTree(o.geom, o.store); fresh.Root() != o.integrity.Root() {
				t.Fatalf("step %d, level %d: root %x, a rebuild over the store gives %x", step, i, o.integrity.Root(), fresh.Root())
			}
		}
	}
}

// hashCounts returns each level's hash-call counter.
func hashCounts(s *Stack) []uint64 {
	var out []uint64
	for _, o := range s.orams {
		out = append(out, o.integrity.hashes)
	}
	return out
}

// TestMerkleMatchesClimbingReference drives mixed accesses through stacks
// with integrity on and requires every level's hash tree to stay identical,
// node for node below the cached top, to one kept by the climbing reference
// update; every fourth step it flushes the top, after which the whole tree
// must match and its root equal a rebuild over the store. Roots sealed into
// checkpoints by the climbing algorithm therefore still verify.
func TestMerkleMatchesClimbingReference(t *testing.T) {
	for _, recursion := range []int{0, 2} {
		for _, batchK := range []int{0, 4} {
			for _, store := range []string{"mem", "file"} {
				t.Run(fmt.Sprintf("recursion=%d/batchK=%d/%s", recursion, batchK, store), func(t *testing.T) {
					cfg := StackConfig{RecursiveConfig: RecursiveConfig{
						DataBlocks: 512, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: recursion,
					}, BatchK: batchK}
					var factory StorageFactory
					if store == "file" {
						factory = testFileFactory(t, t.TempDir(), 16)
					}
					s, err := NewStackOn(cfg, testKey(9), rand.New(rand.NewSource(9)), factory)
					if err != nil {
						t.Fatal(err)
					}
					defer func() {
						for _, o := range s.orams {
							o.store.Close()
						}
					}()
					s.EnableIntegrity()
					ref := newRefTrees(s)
					rng := rand.New(rand.NewSource(10))
					data := make([]byte, cfg.DataBlockBytes)
					for step := 0; step < 400; step++ {
						var err error
						switch c := rng.Intn(10); {
						case c == 0:
							err = s.DummyAccess()
						case c < 3 && batchK > 0:
							ops := make([]BatchOp, rng.Intn(batchK+1))
							for i := range ops {
								ops[i] = BatchOp{Addr: uint64(rng.Int63n(int64(cfg.DataBlocks))), Fn: func(d []byte) { d[1]++ }}
							}
							err = s.AccessBatch(ops)
						case c < 6:
							rng.Read(data)
							_, err = s.Access(OpWrite, uint64(rng.Int63n(int64(cfg.DataBlocks))), data)
						default:
							_, err = s.Access(OpRead, uint64(rng.Int63n(int64(cfg.DataBlocks))), nil)
						}
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						ref.sync()
						flush := step%4 == 3
						if flush {
							if err := s.flushTop(); err != nil {
								t.Fatal(err)
							}
							ref.sync()
						}
						ref.check(t, step, flush, step%100 == 99)
					}
				})
			}
		}
	}
}

// TestMerkleHashCallsPerAccess pins the integrity cost: a classic access,
// real or dummy, makes exactly 3(L−t) SHA-256 calls per tree of L levels
// with t = min(6, L−1) of them cached — L−t verifications on the read, a
// digest and a subtree hash per stored bucket on the write — where the
// climbing reference, over the same stored buckets, makes (L−t) plus
// Σ_{d=t}^{L−1} (d+2). At L = 12 that is 18 against 69; for the 12/9/6
// stack (t = 6/6/5), 30 against 107. A deferred slot makes L−t
// verifications per data fetch (the fetch writes nothing), 3(L−t) per
// position-map level per fetch, and 3(L−t) per eviction path.
func TestMerkleHashCallsPerAccess(t *testing.T) {
	for _, c := range []struct {
		recursion    int
		levels, top  []int
		after, refer uint64
	}{
		{0, []int{12}, []int{6}, 18, 69},
		{2, []int{12, 9, 6}, []int{6, 6, 5}, 30, 107},
	} {
		t.Run(fmt.Sprintf("recursion=%d", c.recursion), func(t *testing.T) {
			cfg := StackConfig{RecursiveConfig: RecursiveConfig{
				DataBlocks: 8192, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: c.recursion,
			}}
			var got []int
			for _, g := range cfg.Geometries() {
				got = append(got, g.Levels)
			}
			if !slices.Equal(got, c.levels) {
				t.Fatalf("tree levels %v, want %v", got, c.levels)
			}
			s, err := NewStack(cfg, testKey(11), rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			s.EnableIntegrity()
			ref := newRefTrees(s)
			data := make([]byte, cfg.DataBlockBytes)
			for i := 0; i < 300; i++ {
				before := hashCounts(s)
				var err error
				switch i % 3 {
				case 0:
					_, err = s.Access(OpWrite, uint64(i*37)%cfg.DataBlocks, data)
				case 1:
					_, err = s.Access(OpRead, uint64(i*53)%cfg.DataBlocks, nil)
				default:
					err = s.DummyAccess()
				}
				if err != nil {
					t.Fatal(err)
				}
				var total, refTotal uint64
				for l, n := range hashCounts(s) {
					perLevel := n - before[l]
					if want := 3 * uint64(c.levels[l]-c.top[l]); perLevel != want {
						t.Fatalf("access %d, level %d: %d hash calls, want 3(L−t) = %d", i, l, perLevel, want)
					}
					total += perLevel
				}
				for _, n := range ref.sync() {
					refTotal += n
				}
				if total != c.after || refTotal != c.refer {
					t.Fatalf("access %d: %d hash calls (reference %d), want %d (reference %d)", i, total, refTotal, c.after, c.refer)
				}
			}
		})
	}
	t.Run("deferred", func(t *testing.T) {
		cfg := StackConfig{RecursiveConfig: RecursiveConfig{
			DataBlocks: 8192, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 2,
		}, BatchK: 4, EvictEvery: 4}
		s, err := NewStack(cfg, testKey(12), rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		s.EnableIntegrity()
		paths := uint64(s.Config().EvictPaths)
		// Per fetch, real or dummy: 12−6 data-path verifications, plus a
		// classic access at each map level (9−6 and 6−5 stored levels).
		perFetch := uint64(6 + 3*(3+1))
		ops := make([]BatchOp, cfg.BatchK)
		for slot := 0; slot < 64; slot++ {
			before, passes := hashCounts(s), s.EvictPassCount()
			for i := range ops {
				ops[i] = BatchOp{Addr: uint64(slot*cfg.BatchK+i) * 29 % cfg.DataBlocks}
			}
			if err := s.AccessBatch(ops[:slot%(cfg.BatchK+1)]); err != nil {
				t.Fatal(err)
			}
			var total uint64
			for l, n := range hashCounts(s) {
				total += n - before[l]
			}
			want := uint64(cfg.BatchK) * perFetch
			if s.EvictPassCount() != passes {
				want += paths * 3 * 6
			}
			if total != want {
				t.Fatalf("slot %d: %d hash calls, want %d", slot, total, want)
			}
		}
	})
}
