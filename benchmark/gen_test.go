package main

import (
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// streamHash folds the first n ops of a generator into one number.
func streamHash(g *generator, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		op := g.Next()
		put(uint64(op.Kind))
		put(uint64(op.Gap))
		if op.Kind == opBatch {
			for _, a := range op.Addrs {
				put(a)
			}
		} else {
			put(op.Addr)
		}
	}
	return h.Sum64()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		spec := w.sized(defaultBlocksLog2).Gen
		a := streamHash(newGenerator(spec, 7, 2, 0), 5000)
		if b := streamHash(newGenerator(spec, 7, 2, 0), 5000); a != b {
			t.Errorf("%s: same seed gave different streams", w.Name)
		}
		if b := streamHash(newGenerator(spec, 8, 2, 0), 5000); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
		if b := streamHash(newGenerator(spec, 7, 2, 1), 5000); a == b {
			t.Errorf("%s: clients 0 and 1 gave the same stream", w.Name)
		}
	}
}

func TestNextDoesNotAllocate(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w.sized(defaultBlocksLog2).Gen, 1, 2, 0)
		if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
			t.Errorf("%s: Next allocates %v times per op", w.Name, n)
		}
	}
}

func TestWritesStayInTheClientsClass(t *testing.T) {
	spec := genSpec{Blocks: 1 << 10, ZipfS: 1.1, WriteFrac: 0.5}
	const clients = 3 // does not divide the address space: the top class is short
	for c := 0; c < clients; c++ {
		g := newGenerator(spec, 3, clients, c)
		for i := 0; i < 20000; i++ {
			op := g.Next()
			if op.Addr >= spec.Blocks {
				t.Fatalf("address %d outside %d blocks", op.Addr, spec.Blocks)
			}
			if op.Kind == opWrite && op.Addr%clients != uint64(c) {
				t.Fatalf("client %d wrote address %d of class %d", c, op.Addr, op.Addr%clients)
			}
		}
	}
}

func TestZipfRankFrequency(t *testing.T) {
	const s = 1.3
	g := newGenerator(genSpec{Blocks: 1 << 14, ZipfS: s}, 5, 1, 0)
	addrOf := func(rank uint64) uint64 { return (rank*g.mul + g.off) & g.mask }
	counts := make(map[uint64]int)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[g.Next().Addr]++
	}
	// P(rank k) ∝ (1+k)^-s, so rank 0 is drawn 2^s times as often as rank 1
	// and 4^s times as often as rank 3.
	for _, k := range []uint64{1, 3} {
		got := float64(counts[addrOf(0)]) / float64(counts[addrOf(k)])
		want := math.Pow(float64(1+k), s)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("rank 0 : rank %d frequency is %.3f, want %.3f ± 8%%", k, got, want)
		}
	}
}

func TestUniformPickCoversTheSpace(t *testing.T) {
	g := newGenerator(genSpec{Blocks: 1 << 8}, 5, 1, 0)
	seen := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		seen[g.Next().Addr] = true
	}
	if len(seen) != 1<<8 {
		t.Errorf("uniform pick reached %d of %d addresses", len(seen), 1<<8)
	}
}

func TestPoissonMeanGap(t *testing.T) {
	const rate = 8000.0
	g := newGenerator(genSpec{Blocks: 1 << 10, Rate: rate}, 9, 1, 0)
	var sum time.Duration
	const n = 400000
	for i := 0; i < n; i++ {
		sum += g.Next().Gap
	}
	got, want := sum.Seconds()/n, 1/rate
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("mean gap %.3g s, want %.3g s ± 1%%", got, want)
	}
}
