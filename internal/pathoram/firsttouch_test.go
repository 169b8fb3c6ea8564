package pathoram

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tcoram/internal/stats"
)

// firstTouchConfig is the stack the first-touch tests load: 2048 data
// blocks (a 10-level data tree, 512 leaves) and 32-B map blocks of 8 labels.
func firstTouchConfig(recursion, batchK int) StackConfig {
	return StackConfig{RecursiveConfig: RecursiveConfig{
		DataBlocks: 2048, DataBlockBytes: 64, PosMapBlockBytes: 32, Z: 3, Recursion: recursion,
	}, BatchK: batchK}
}

// dataLeafOf runs one Update on s and returns the leaf of the first data
// path it reads — the block's own path, for either policy: classic reads it
// before rewriting it, deferred fetches it before the slot's dummy fetches
// and any eviction pass. The bus carries only the path below the cached
// top, L−t buckets, the last of them the leaf.
func dataLeafOf(t *testing.T, s *Stack, addr uint64) uint64 {
	t.Helper()
	d := s.data
	d.TraceBus, d.BusTrace = true, d.BusTrace[:0]
	if err := s.Update(addr, nil); err != nil {
		t.Fatal(err)
	}
	var reads []uint64
	for _, ev := range d.BusTrace {
		if !ev.Write {
			reads = append(reads, ev.Bucket)
		}
	}
	stored := d.geom.Levels - d.topLevels
	if len(reads) < stored {
		t.Fatalf("update of %d read %d data buckets, want at least %d", addr, len(reads), stored)
	}
	return reads[stored-1] - (d.geom.Leaves() - 1)
}

// leafBins is the number of equal leaf ranges the uniformity test counts
// into, and leafChi2Crit the chi-square critical value for leafBins−1 = 31
// degrees of freedom at significance 0.001.
const (
	leafBins     = 32
	leafChi2Crit = 61.10
)

// firstTouchSeeds are the fixed seeds whose touches each uniformity case
// pools into one chi-square: 4 × 2048 samples at the same significance
// gives the test more power against a skewed leaf distribution than one
// seed's 2048.
var firstTouchSeeds = []int64{13, 14, 15, 16}

// TestFirstTouchPathUniform requires the data path a block's first access
// reads to be uniform over the leaves at every recursion depth and under
// both policies: for each seed in firstTouchSeeds, 2048 first touches,
// pooled and counted into 32 leaf ranges, must pass chi-square at 0.001.
// Before position-map trees created their blocks all-0xFF, a never-touched
// slot read leaf 0 under recursion, so every first touch read path 0 — an
// address-dependent bus pattern. The paired case is the noninterference
// control: 2048 touches of one block per seed, whose path is uniform by the
// remap, pass the same test.
func TestFirstTouchPathUniform(t *testing.T) {
	for _, recursion := range []int{0, 1, 2} {
		for _, batchK := range []int{0, 4} {
			t.Run(fmt.Sprintf("recursion=%d/batchK=%d", recursion, batchK), func(t *testing.T) {
				for _, pattern := range []string{"first-touch", "repeat"} {
					cfg := firstTouchConfig(recursion, batchK)
					counts := make([]int, leafBins)
					for _, seed := range firstTouchSeeds {
						s, err := NewStack(cfg, testKey(13), rand.New(rand.NewSource(seed)))
						if err != nil {
							t.Fatal(err)
						}
						shift := uint(bits.Len64(s.data.geom.Leaves()-1)) - 5 // top 5 leaf bits: 32 bins
						for a := uint64(0); a < cfg.DataBlocks; a++ {
							addr := a
							if pattern == "repeat" {
								addr = 7
							}
							counts[dataLeafOf(t, s, addr)>>shift]++
						}
					}
					if chi2 := stats.ChiSquareUniform(counts); chi2 > leafChi2Crit {
						t.Errorf("%s: data-path leaves non-uniform, chi2 = %.1f > %.2f (counts %v)", pattern, chi2, leafChi2Crit, counts)
					}
				}
			})
		}
	}
}

// TestFirstTouchLoadStashBounded loads every block once, in address order,
// and requires the data stash peak under recursion to stay within a small
// constant of the flat stack's: with first touches on random paths, a
// sequential load parks blocks in the tree, not in trusted memory. (When
// every first touch read path 0, the classic stash peaked at the block
// count: a classic write-back can only place a block where its new path
// meets the one just read, which for most blocks is the full root. The
// deferred eviction pass walks other paths, so it hid the bug from this
// count.) The deferred policy must also never need a forced eviction pass.
func TestFirstTouchLoadStashBounded(t *testing.T) {
	const slack = 16
	for _, batchK := range []int{0, 4} {
		t.Run(fmt.Sprintf("batchK=%d", batchK), func(t *testing.T) {
			var flat int
			for _, recursion := range []int{0, 1, 2} {
				cfg := firstTouchConfig(recursion, batchK)
				s, err := NewStack(cfg, testKey(14), rand.New(rand.NewSource(14)))
				if err != nil {
					t.Fatal(err)
				}
				data := make([]byte, cfg.DataBlockBytes)
				for a := uint64(0); a < cfg.DataBlocks; a++ {
					data[0] = byte(a)
					if _, err := s.Access(OpWrite, a, data); err != nil {
						t.Fatal(err)
					}
				}
				peak := s.LevelStashPeaks(nil)[0]
				t.Logf("recursion %d: data stash peak %d", recursion, peak)
				if recursion == 0 {
					flat = peak
				} else if peak > flat+slack {
					t.Errorf("recursion %d: data stash peaked at %d after a sequential load, flat stack %d (slack %d)", recursion, peak, flat, slack)
				}
				if s.ForcedEvictions() != 0 {
					t.Errorf("recursion %d: %d forced eviction passes during the load", recursion, s.ForcedEvictions())
				}
				if err := s.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
