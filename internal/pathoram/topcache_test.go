package pathoram

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tcoram/internal/crypt"
)

// levelCounts returns each tree's (BucketReads, BucketWrites).
func levelCounts(s *Stack) []levelIO {
	var out []levelIO
	for _, o := range s.orams {
		out = append(out, levelIO{o.BucketReads, o.BucketWrites})
	}
	return out
}

// TestTreeTopTraffic pins what the top cache takes off the bus. Every tree
// of a stack caches its top t = min(6, L−1) levels, (2^t−1) bucket
// plaintexts of trusted memory; a classic access, real or dummy, then moves
// exactly L−t bucket reads and L−t writes per tree through the untrusted
// store — 6/6 for the flat 12-level stack, 6+3+1 = 10/10 for the 12/9/6
// stack — and a deferred data fetch moves L−t reads and no writes.
func TestTreeTopTraffic(t *testing.T) {
	for _, c := range []struct {
		recursion   int
		levels, top []int
		perAccess   uint64
	}{
		{0, []int{12}, []int{6}, 6},
		{2, []int{12, 9, 6}, []int{6, 6, 5}, 10},
	} {
		t.Run(fmt.Sprintf("recursion=%d", c.recursion), func(t *testing.T) {
			cfg := StackConfig{RecursiveConfig: RecursiveConfig{
				DataBlocks: 8192, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: c.recursion,
			}}
			s, err := NewStack(cfg, testKey(17), rand.New(rand.NewSource(17)))
			if err != nil {
				t.Fatal(err)
			}
			for l, o := range s.orams {
				if o.geom.Levels != c.levels[l] || o.topLevels != c.top[l] {
					t.Fatalf("level %d: %d tree levels, %d cached; want %d, %d", l, o.geom.Levels, o.topLevels, c.levels[l], c.top[l])
				}
				want := (1<<c.top[l] - 1) * o.geom.BucketPlainBytes()
				if got := len(o.top); got != want {
					t.Fatalf("level %d: cache holds %d bytes, want (2^%d−1)·%d = %d", l, got, c.top[l], o.geom.BucketPlainBytes(), want)
				}
			}
			data := make([]byte, cfg.DataBlockBytes)
			for i := 0; i < 300; i++ {
				before := levelCounts(s)
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
				var reads, writes uint64
				for l, n := range levelCounts(s) {
					stored := uint64(c.levels[l] - c.top[l])
					if dr, dw := n.reads-before[l].reads, n.writes-before[l].writes; dr != stored || dw != stored {
						t.Fatalf("access %d, level %d: %d reads, %d writes; want L−t = %d each", i, l, dr, dw, stored)
					}
					reads += n.reads - before[l].reads
					writes += n.writes - before[l].writes
				}
				if reads != c.perAccess || writes != c.perAccess {
					t.Fatalf("access %d: %d/%d bucket reads/writes, want %d/%d", i, reads, writes, c.perAccess, c.perAccess)
				}
			}
		})
	}
	t.Run("deferred", func(t *testing.T) {
		cfg := StackConfig{RecursiveConfig: RecursiveConfig{
			DataBlocks: 8192, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: 2,
		}, BatchK: 4, EvictEvery: 4}
		s, err := NewStack(cfg, testKey(18), rand.New(rand.NewSource(18)))
		if err != nil {
			t.Fatal(err)
		}
		paths := uint64(s.Config().EvictPaths)
		k := uint64(cfg.BatchK)
		ops := make([]BatchOp, cfg.BatchK)
		for slot := 0; slot < 64; slot++ {
			before, passes := levelCounts(s), s.EvictPassCount()
			for i := range ops {
				ops[i] = BatchOp{Addr: uint64(slot*cfg.BatchK+i) * 31 % cfg.DataBlocks}
			}
			if err := s.AccessBatch(ops[:slot%(cfg.BatchK+1)]); err != nil {
				t.Fatal(err)
			}
			// BatchK fetches of 12−6 data buckets, each resolved by a classic
			// access of 9−6 and 6−5 stored buckets in the map trees.
			want := []levelIO{{6 * k, 0}, {3 * k, 3 * k}, {1 * k, 1 * k}}
			if s.EvictPassCount() != passes {
				want[0].reads += paths * 6
				want[0].writes += paths * 6
			}
			for l, n := range levelCounts(s) {
				if got := (levelIO{n.reads - before[l].reads, n.writes - before[l].writes}); got != want[l] {
					t.Fatalf("slot %d, level %d: %d reads, %d writes; want %d, %d", slot, l, got.reads, got.writes, want[l].reads, want[l].writes)
				}
			}
		}
	})
}

// topPresets are the three stack shapes the top-cache durability tests
// drive: the flat, recursive and batched presets over 256 64-B blocks (a
// 7-level data tree with 6 levels cached).
func topPresets() map[string]StackConfig {
	shape := RecursiveConfig{DataBlocks: 256, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3}
	rec := shape
	rec.Recursion = 2
	return map[string]StackConfig{
		"flat":      {RecursiveConfig: shape},
		"recursive": {RecursiveConfig: rec},
		"batched":   {RecursiveConfig: rec, BatchK: 4, EvictEvery: 4},
	}
}

// TestTopFlushIsPublic requires a checkpoint's top flush to write exactly
// what the public paths determine: at cadence 8, for every preset and every
// tree, the buckets the capture writes are the level-<t ancestors of the
// leaves whose paths were rewritten in that window, read off the tree's bus
// trace, each written once and deepest first. Between captures no cached
// bucket appears on the bus at all.
func TestTopFlushIsPublic(t *testing.T) {
	const cadence, windows = 8, 12
	for _, name := range slices.Sorted(maps.Keys(topPresets())) {
		cfg := topPresets()[name]
		t.Run(name, func(t *testing.T) {
			s, err := NewStack(cfg, testKey(19), rand.New(rand.NewSource(19)))
			if err != nil {
				t.Fatal(err)
			}
			s.EnableIntegrity()
			s.TrackDirty()
			for _, o := range s.orams {
				o.TraceBus, o.BusTrace = true, o.BusTrace[:0]
			}
			rng := rand.New(rand.NewSource(20))
			data := make([]byte, cfg.DataBlockBytes)
			var buf []byte
			for w := 0; w < windows; w++ {
				for slot := 0; slot < cadence; slot++ {
					rng.Read(data)
					if _, err := s.Access(OpWrite, uint64(rng.Int63n(int64(cfg.DataBlocks))), data); err != nil {
						t.Fatal(err)
					}
				}
				// The expected flush, per tree, from the window's trace.
				want := make([][]uint64, len(s.orams))
				mark := make([]int, len(s.orams))
				for l, o := range s.orams {
					set := map[uint64]bool{}
					for _, ev := range o.BusTrace {
						if o.cached(ev.Bucket) {
							t.Fatalf("window %d, level %d: cached bucket %d on the bus between captures", w, l, ev.Bucket)
						}
						if ev.Write && ev.Bucket >= o.geom.Leaves()-1 {
							leaf := ev.Bucket - (o.geom.Leaves() - 1)
							for level := 0; level < o.topLevels; level++ {
								set[o.geom.NodeIndex(leaf, level)] = true
							}
						}
					}
					want[l] = slices.Sorted(maps.Keys(set))
					slices.Reverse(want[l])
					mark[l] = len(o.BusTrace)
				}
				if buf, err = s.AppendDelta(buf[:0], cadence*s.BatchK()); err != nil {
					t.Fatal(err)
				}
				for l, o := range s.orams {
					var got []uint64
					for _, ev := range o.BusTrace[mark[l]:] {
						if !ev.Write {
							t.Fatalf("window %d, level %d: the flush read bucket %d", w, l, ev.Bucket)
						}
						got = append(got, ev.Bucket)
					}
					if !slices.Equal(got, want[l]) {
						t.Fatalf("window %d, level %d: flush wrote %v, the window's paths give %v", w, l, got, want[l])
					}
					if len(got) == 0 {
						t.Fatalf("window %d, level %d: no path was rewritten, nothing flushed", w, l)
					}
					o.BusTrace = o.BusTrace[:0]
				}
			}
		})
	}
}

// crashImage is what a crash right after one checkpoint leaves: the bucket
// files as the checkpoint's flush left them, the checkpoint records written
// so far (a base, then deltas), and every write acknowledged before it.
type crashImage struct {
	files   [][]byte
	records [][]byte
	acked   map[uint64]byte
}

// TestTopFlushCrashImages takes a crash image after every checkpoint, at
// cadence 1 and 8, for every preset on file stores, and requires each image
// to recover — root checked, cached top decrypted from the flushed store —
// with every write acknowledged before its checkpoint intact and the path
// invariant holding. It then flips one byte of the root bucket, which every
// flush rewrites, in the last image of every tree, and requires recovery to
// fail closed with ErrRootMismatch.
func TestTopFlushCrashImages(t *testing.T) {
	const slots = 24
	key := crypt.Key{21}
	for _, cadence := range []int{1, 8} {
		for _, name := range slices.Sorted(maps.Keys(topPresets())) {
			cfg := topPresets()[name]
			t.Run(fmt.Sprintf("cadence=%d/%s", cadence, name), func(t *testing.T) {
				dir := t.TempDir()
				s, err := NewStackOn(cfg, key, rand.New(rand.NewSource(22)), testFileFactory(t, dir, 16))
				if err != nil {
					t.Fatal(err)
				}
				s.EnableIntegrity()
				s.TrackDirty()
				for _, o := range s.orams {
					o.store.(*FileStorage).RetainDirty(true)
				}
				rng := rand.New(rand.NewSource(23))
				acked := map[uint64]byte{}
				var records [][]byte
				var images []crashImage
				data := make([]byte, cfg.DataBlockBytes)
				for slot := 1; slot <= slots; slot++ {
					addr := uint64(rng.Int63n(int64(cfg.DataBlocks)))
					data[0] = byte(slot)
					if _, err := s.Access(OpWrite, addr, data); err != nil {
						t.Fatal(err)
					}
					acked[addr] = byte(slot)
					if slot%cadence != 0 {
						continue
					}
					var rec []byte
					if records == nil {
						rec, err = s.AppendState(nil)
					} else {
						rec, err = s.AppendDelta(nil, cadence*s.BatchK())
					}
					if err != nil {
						t.Fatal(err)
					}
					records = append(records, rec)
					img := crashImage{records: slices.Clone(records), acked: maps.Clone(acked)}
					for l, o := range s.orams {
						if err := o.store.Flush(); err != nil {
							t.Fatal(err)
						}
						raw, err := os.ReadFile(filepath.Join(dir, levelFileName(l)))
						if err != nil {
							t.Fatal(err)
						}
						img.files = append(img.files, raw)
					}
					images = append(images, img)
				}
				for _, o := range s.orams {
					o.store.Close()
				}
				for i, img := range images {
					rec, err := recoverImage(t, cfg, key, img)
					if err != nil {
						t.Fatalf("image %d: %v", i, err)
					}
					if err := rec.CheckInvariant(); err != nil {
						t.Fatalf("image %d: %v", i, err)
					}
					for _, addr := range slices.Sorted(maps.Keys(img.acked)) {
						got, err := rec.Access(OpRead, addr, nil)
						if err != nil {
							t.Fatalf("image %d, reading %d: %v", i, addr, err)
						}
						if got[0] != img.acked[addr] {
							t.Fatalf("image %d: block %d reads %d, acknowledged %d", i, addr, got[0], img.acked[addr])
						}
					}
					closeStack(rec)
				}
				last := images[len(images)-1]
				for l := range last.files {
					img := last
					img.files = slices.Clone(img.files)
					img.files[l] = slices.Clone(img.files[l])
					img.files[l][fileHeaderSize+crypt.NonceSize] ^= 0x01 // bucket 0's first ciphertext byte
					if rec, err := recoverImage(t, cfg, key, img); !errors.Is(err, ErrRootMismatch) {
						if rec != nil {
							closeStack(rec)
						}
						t.Fatalf("level %d: recovery over a tampered root bucket: got %v, want ErrRootMismatch", l, err)
					}
				}
			})
		}
	}
}

// recoverImage writes img's bucket files into a fresh directory, folds its
// records into one state, and recovers the stack over those files.
func recoverImage(t *testing.T, cfg StackConfig, key crypt.Key, img crashImage) (*Stack, error) {
	t.Helper()
	dir := t.TempDir()
	for l, raw := range img.files {
		if err := os.WriteFile(filepath.Join(dir, levelFileName(l)), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := DecodeState(img.records[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range img.records[1:] {
		d, _, err := DecodeDelta(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyDelta(st, d, cfg.Geometries()); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(level int, g Geometry) (BucketStore, error) {
		return OpenFileStorage(g, FileStorageConfig{Path: filepath.Join(dir, levelFileName(level))})
	}
	return RecoverStack(cfg, key, rand.New(rand.NewSource(24)), reopen, st)
}

// closeStack closes every tree's store.
func closeStack(s *Stack) {
	for _, o := range s.orams {
		o.store.Close()
	}
}
