package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"

	"tcoram/internal/cluster"
	"tcoram/internal/pathoram"
	"tcoram/internal/server"
)

// kv is the part of the service a client goroutine drives. *server.Store,
// *server.Client and tracedService all have it.
type kv interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
	ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error)
}

// workload is one named traffic mix over one configuration of the service.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	Gen  genSpec
	// Clients is the open-loop workload's worker-pool size; 0 means a closed
	// loop, whose client count follows from the cores (see clients).
	Clients int
	// Shards and the store shape; Cluster switches to two daemons behind a
	// routing proxy, each over a one-shard store of this shape.
	Store   server.Config
	Cluster bool
}

// Default geometry. The reference box populates 2^14 blocks through the
// slowest workload in under 2 s, which is what lets every run set up three
// times inside the driver's time cap; -smoke uses 2^10.
const defaultBlocksLog2 = 14

// bucketZ is the bucket capacity every store runs with (the paper's Z).
const bucketZ = 3

// pacedPeriodUS is the public slot period of paced-batched. The sandbox's
// timers fire about 1 ms late whatever the delay, so a 250 µs grid issues
// two slots in three overdue; 4 ms is the shortest round period at which
// core.overdue_frac stays at 0 here.
const pacedPeriodUS = 4000

var workloads = []workload{
	{
		Name: "flat-mem",
		Why:  "flat ORAM in RAM, unpaced, uniform 50% writes: pathoram+crypt do the work; wire, cluster, file store and checkpoints do none",
		Gen:  genSpec{WriteFrac: 0.5},
		Store: server.Config{Shards: 2, BlockBytes: 64, Backend: server.BackendFlat,
			Unpaced: true},
	},
	{
		Name: "recursive-merkle",
		Why:  "recursive ORAM with Merkle integrity, unpaced, zipf 1.1: the same package used differently, position-map recursion and hashing dominate",
		Gen:  genSpec{ZipfS: 1.1, WriteFrac: 0.5},
		Store: server.Config{Shards: 2, BlockBytes: 64, Backend: server.BackendRecursive,
			Recursion: 2, Integrity: true, Unpaced: true},
	},
	{
		Name: "durable-file",
		Why:  "file store with a page cache of 1/8 of the tree and a checkpoint every 8 slots, zipf 1.1: FileStorage and the persist path do the work",
		Gen:  genSpec{ZipfS: 1.1, WriteFrac: 0.5},
		Store: server.Config{Shards: 2, BlockBytes: 64, Backend: server.BackendFlat,
			Store: server.StoreFile, CheckpointEvery: 8, Sync: "none", Unpaced: true},
	},
	{
		Name: "cluster-cdsi",
		Why:  "two daemons behind a routing proxy over loopback TCP, zipf 1.3, 80% ReadBatch(8) and 20% writes: wire codec and cluster fan-out dominate",
		Gen:  genSpec{ZipfS: 1.3, WriteFrac: 0.2, Batch: 8},
		Store: server.Config{Shards: 1, BlockBytes: 64, Backend: server.BackendFlat,
			Unpaced: true},
		Cluster: true,
	},
	{
		Name:    "paced-batched",
		Why:     "batched ORAM on a static 4 ms slot grid, open-loop Poisson arrivals at 1/4 of the slot supply: the paper's mechanism, latency pinned by the public period",
		Gen:     genSpec{WriteFrac: 0.5},
		Clients: 64,
		Store: server.Config{Shards: 8, BlockBytes: 64, Backend: server.BackendBatched,
			BatchK: 4, EvictEvery: 4, ClockHz: 1_000_000, ORAMLatency: 50,
			Rates: []uint64{pacedPeriodUS - 50}},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sized fills in what depends on the geometry: the address space, the page
// cache share and the open-loop rate (a quarter of the slot supply, one
// arrival per shard-period on average).
func (w workload) sized(blocksLog2 int) workload {
	blocks := uint64(1) << blocksLog2
	w.Gen.Blocks = blocks
	w.Store.Blocks = blocks
	w.Store.Z = bucketZ
	if w.Store.Store == server.StoreFile {
		g := pathoram.ShardGeometry(blocks, w.Store.Shards, bucketZ, w.Store.BlockBytes)
		w.Store.CacheBuckets = int(g.Buckets() / 8)
	}
	if !w.Store.Unpaced {
		slotsPerSec := float64(w.Store.Shards) * 1e6 / pacedPeriodUS
		w.Gen.Rate = slotsPerSec * float64(w.Store.BatchK) / 4
	}
	return w
}

func (w workload) openLoop() bool { return w.Gen.Rate > 0 }

// clients is the number of client goroutines. In process, every op in
// flight keeps two goroutines busy by turns, the client and the shard it
// called, so a closed loop of nproc/2 clients fills the box without
// oversubscribing it; with nproc clients the run-to-run spread of every
// timing doubles on the reference box, because a core that the host takes
// away for a moment then has a queue behind it. Across TCP the client is
// one goroutine of many per op and fewer of them are no steadier, so there
// is one connection per core.
func (w workload) clients() int {
	switch {
	case w.Clients > 0:
		return w.Clients
	case w.Cluster:
		return runtime.GOMAXPROCS(0)
	}
	return max(1, runtime.GOMAXPROCS(0)/2)
}

// env is one built instance of a workload's service.
type env struct {
	clients []kv            // one handle per client goroutine
	stores  []*server.Store // every store whose Stats the metrics sum
	router  *cluster.Router
	tx, rx  atomic.Uint64 // client-side wire bytes (traced cluster runs)
	closers []func() error
}

// buildEnv starts the service. A non-nil tracer interposes the span
// wrappers at every server.Service boundary (switched on per window by the
// tracer's flag) and the byte counters on the client connections; ops, one
// per client, is where the in-process wrapper reads its caller's op id.
func buildEnv(w workload, nclients int, dataDir string, tr *tracer, ops []uint32) (*env, error) {
	e := &env{}
	cfg := w.Store
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if !w.Cluster {
		cfg.DataDir = dataDir
		st, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		e.stores = append(e.stores, st)
		e.closers = append(e.closers, st.Close)
		for c := 0; c < nclients; c++ {
			if tr == nil {
				e.clients = append(e.clients, st)
				continue
			}
			e.clients = append(e.clients, &tracedService{inner: st, t: tr, buf: tr.buf(), hop: hopNode, src: uint16(c), op: &ops[c]})
		}
		ok = true
		return e, nil
	}

	serve := func(svc server.Service) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		e.closers = append(e.closers, l.Close)
		go server.Serve(l, svc) // returns when the listener closes
		return l.Addr().String(), nil
	}
	var nodes []string
	for n := 0; n < 2; n++ {
		st, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		e.stores = append(e.stores, st)
		e.closers = append(e.closers, st.Close)
		var svc server.Service = st
		if tr != nil {
			svc = &tracedService{inner: st, t: tr, buf: tr.buf(), hop: hopNode, src: uint16(n)}
		}
		addr, err := serve(svc)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, addr)
	}
	r, err := cluster.NewRouter(cluster.Config{Nodes: nodes, Epoch: 1, Replicas: 2})
	if err != nil {
		return nil, err
	}
	e.router = r
	e.closers = append(e.closers, r.Close)
	var svc server.Service = r
	if tr != nil {
		svc = &tracedService{inner: r, t: tr, buf: tr.buf(), hop: hopProxy}
	}
	proxy, err := serve(svc)
	if err != nil {
		return nil, err
	}
	for c := 0; c < nclients; c++ {
		var cl *server.Client
		if tr == nil {
			cl, err = server.Dial(proxy)
		} else {
			var conn net.Conn
			if conn, err = net.Dial("tcp", proxy); err == nil {
				cl = server.NewClient(countingConn{Conn: conn, tx: &e.tx, rx: &e.rx})
			}
		}
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, cl)
		e.closers = append(e.closers, cl.Close)
	}
	if r.Blocks() != w.Gen.Blocks {
		return nil, fmt.Errorf("cluster serves %d blocks, the generator expects %d", r.Blocks(), w.Gen.Blocks)
	}
	ok = true
	return e, nil
}

// close tears the service down, clients first.
func (e *env) close() error {
	var errs []error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	e.closers = nil
	return errors.Join(errs...)
}

// counters is the sum of every store's Stats the metrics are made of.
type counters struct {
	Real, Dummy, Coalesced, BatchFetched, Forced uint64
	Overdue, MaxLagCycles                        uint64
	CacheHits, CacheMisses                       uint64
	FileReads, FileWrites, MMapReads             uint64
	Checkpoints, CheckpointBytes, CheckpointNS   uint64
	Queue, StashPeak                             int
	LeakedBits                                   float64
	Failed                                       bool
}

func (e *env) counters() counters {
	var c counters
	for _, st := range e.stores {
		s := st.Stats()
		c.LeakedBits += s.LeakedBits
		for _, sh := range s.Shards {
			c.Real += sh.RealAccesses
			c.Dummy += sh.DummyAccesses
			c.Coalesced += sh.Coalesced
			c.BatchFetched += sh.BatchFetched
			c.Forced += sh.ForcedEvictions
			c.Overdue += sh.OverdueSlots
			c.MaxLagCycles = max(c.MaxLagCycles, sh.MaxLagCycles)
			c.CacheHits += sh.CacheHits
			c.CacheMisses += sh.CacheMisses
			c.FileReads += sh.FileReads
			c.FileWrites += sh.FileWrites
			c.MMapReads += sh.MMapReads
			c.Checkpoints += sh.Checkpoints
			c.CheckpointBytes += sh.CheckpointBytes
			c.CheckpointNS += sh.CheckpointNS
			c.Queue += sh.Queue
			c.StashPeak = max(c.StashPeak, sh.StashPeak)
			c.Failed = c.Failed || sh.Failed
		}
	}
	return c
}

// cumulative lists the counters that only grow, so that a difference and a
// sum are each one loop; the rest are gauges and high-water marks.
func (c *counters) cumulative() []*uint64 {
	return []*uint64{&c.Real, &c.Dummy, &c.Coalesced, &c.BatchFetched, &c.Forced, &c.Overdue,
		&c.CacheHits, &c.CacheMisses, &c.FileReads, &c.FileWrites, &c.MMapReads,
		&c.Checkpoints, &c.CheckpointBytes, &c.CheckpointNS}
}

// since returns the growth of every cumulative counter from a to c; the
// gauges and high-water marks keep c's value.
func (c counters) since(a counters) counters {
	for i, p := range c.cumulative() {
		*p -= *a.cumulative()[i]
	}
	return c
}

// plus adds the growth d to the running total c; the gauges and high-water
// marks are d's.
func (c counters) plus(d counters) counters {
	for i, p := range d.cumulative() {
		*p += *c.cumulative()[i]
	}
	return d
}

// bucketBytes is the size of one bucket write to a shard's bucket file.
func (w workload) bucketBytes() uint64 {
	g := pathoram.ShardGeometry(w.Store.Blocks, w.Store.Shards, bucketZ, w.Store.BlockBytes)
	return uint64(g.BucketCipherBytes())
}
