package main

import (
	"math/rand"
	"time"
)

// opKind is the verb of one generated submission.
type opKind uint8

const (
	opRead  opKind = iota // single Read
	opWrite               // single Write
	opBatch               // ReadBatch of genSpec.Batch addresses
)

func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	}
	return "batch_read"
}

// genSpec is the traffic mix of one workload: everything the program's
// behaviour depends on and nothing it could observe about the benchmark.
type genSpec struct {
	Blocks    uint64  // address space, a power of two
	ZipfS     float64 // 0 = uniform address pick, otherwise the zipf exponent (> 1)
	WriteFrac float64 // share of submissions that are single writes
	Batch     int     // > 0: every read submission is a ReadBatch of this many addresses
	Rate      float64 // > 0: open loop, Poisson arrivals per second over all clients
}

// genOp is one generated submission. Addrs aliases a buffer the generator
// reuses, so a consumer must be done with it before calling Next again.
type genOp struct {
	Kind  opKind
	Addr  uint64
	Addrs []uint64
	Gap   time.Duration // open loop: delay since the previous arrival
}

// generator produces one client's op stream from a seed. Writes land only
// in the client's own address class (addr mod clients == client), so the
// client that reads one of its own blocks knows exactly what it must hold.
type generator struct {
	spec            genSpec
	rng             *rand.Rand
	zipf            *rand.Zipf
	mul, off, mask  uint64 // rank → address permutation, shared by all clients of a seed
	clients, client uint64
	op              genOp
}

// splitmix64 is the seed scrambler: one multiply-xorshift round chain that
// turns consecutive seeds into unrelated constants.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newGenerator(spec genSpec, seed int64, clients, client int) *generator {
	g := &generator{
		spec:    spec,
		rng:     rand.New(rand.NewSource(int64(splitmix64(uint64(seed)) + uint64(client)*0x632be59bd9b4e019))),
		mul:     splitmix64(uint64(seed)+1) | 1, // odd, so the map is a bijection on a power-of-two space
		off:     splitmix64(uint64(seed) + 2),
		mask:    spec.Blocks - 1,
		clients: uint64(clients),
		client:  uint64(client),
	}
	if spec.ZipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, spec.Blocks-1)
	}
	if spec.Batch > 0 {
		g.op.Addrs = make([]uint64, spec.Batch)
	}
	return g
}

// pick draws one address: a zipf (or uniform) rank pushed through the
// seed's permutation, so which addresses are hot changes with the seed
// while the rank-frequency shape does not.
func (g *generator) pick() uint64 {
	var rank uint64
	if g.zipf != nil {
		rank = g.zipf.Uint64()
	} else {
		rank = g.rng.Uint64()
	}
	return (rank*g.mul + g.off) & g.mask
}

// own snaps addr to the nearest address of this client's class.
func (g *generator) own(addr uint64) uint64 {
	addr = addr - addr%g.clients + g.client
	if addr > g.mask {
		addr -= g.clients
	}
	return addr
}

// Next returns the next submission. It does not allocate.
func (g *generator) Next() *genOp {
	op := &g.op
	if g.spec.Rate > 0 {
		op.Gap = time.Duration(g.rng.ExpFloat64() / g.spec.Rate * 1e9)
	}
	switch {
	case g.rng.Float64() < g.spec.WriteFrac:
		op.Kind = opWrite
		op.Addr = g.own(g.pick())
	case g.spec.Batch > 0:
		op.Kind = opBatch
		for i := range op.Addrs {
			op.Addrs[i] = g.pick()
		}
	default:
		op.Kind = opRead
		op.Addr = g.pick()
	}
	return op
}
