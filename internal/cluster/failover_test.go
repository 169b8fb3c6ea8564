package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tcoram/internal/server"
)

// killableNode is an in-process daemon that can be killed abruptly: the
// listener closes and every accepted connection is torn down without a
// goodbye, so clients observe exactly what a crashed process would give
// them — a dead transport, not a polite application-level rejection.
type killableNode struct {
	addr string
	st   *server.Store
	l    net.Listener

	mu    sync.Mutex
	conns []net.Conn
	once  sync.Once
}

func (k *killableNode) Accept() (net.Conn, error) {
	c, err := k.l.Accept()
	if err == nil {
		k.mu.Lock()
		k.conns = append(k.conns, c)
		k.mu.Unlock()
	}
	return c, err
}

func (k *killableNode) Close() error   { return k.l.Close() }
func (k *killableNode) Addr() net.Addr { return k.l.Addr() }

// kill simulates a crash: no new connections, live connections reset,
// store down. Idempotent; also registered as test cleanup.
func (k *killableNode) kill() {
	k.once.Do(func() {
		k.l.Close()
		k.mu.Lock()
		for _, c := range k.conns {
			c.Close()
		}
		k.mu.Unlock()
		k.st.Close()
	})
}

// startKillableNode serves one store on an ephemeral port with crash
// semantics available to the test.
func startKillableNode(t testing.TB, cfg server.Config) *killableNode {
	t.Helper()
	st, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	k := &killableNode{addr: l.Addr().String(), st: st, l: l}
	go server.Serve(k, st)
	t.Cleanup(k.kill)
	return k
}

// fastFailoverCfg keeps retry/probe latencies test-sized.
func fastFailoverCfg(nodes []string, replicas int) Config {
	return Config{
		Nodes:        nodes,
		Epoch:        1,
		Replicas:     replicas,
		ProbeEvery:   20 * time.Millisecond,
		RetryBackoff: server.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	}
}

// TestRouterReplicaFailover is the replication acceptance at the unit
// level: with K=2 over three nodes, killing one node loses nothing — every
// read is served by the surviving replica of each address, writes keep
// succeeding, and the router's stats show the ejection, the failovers, and
// the writes the dead node missed.
func TestRouterReplicaFailover(t *testing.T) {
	nodes := []*killableNode{
		startKillableNode(t, unpacedNodeCfg(256)),
		startKillableNode(t, unpacedNodeCfg(256)),
		startKillableNode(t, unpacedNodeCfg(256)),
	}
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}
	r := startRouter(t, fastFailoverCfg(addrs, 2))

	// 3 nodes × 256 blocks / 2 replicas = 384 cluster blocks.
	if r.Blocks() != 384 {
		t.Fatalf("cluster blocks = %d, want 384", r.Blocks())
	}
	buf := make([]byte, 64)
	for addr := uint64(0); addr < r.Blocks(); addr++ {
		server.FillPayload(buf, addr, 1, addr)
		if err := r.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
	}

	nodes[1].kill()

	// Every block is still readable and intact: addresses whose primary was
	// node 1 come from the successor replica, the rest never notice.
	for addr := uint64(0); addr < r.Blocks(); addr++ {
		data, err := r.Read(addr)
		if err != nil {
			t.Fatalf("read %d after node kill: %v", addr, err)
		}
		if err := server.CheckPayload(data, addr); err != nil {
			t.Fatalf("block %d corrupt after failover: %v", addr, err)
		}
	}
	// Writes degrade to the surviving replica instead of failing.
	for addr := uint64(0); addr < r.Blocks(); addr += 7 {
		server.FillPayload(buf, addr, 2, addr)
		if err := r.Write(addr, buf); err != nil {
			t.Fatalf("write %d after node kill: %v", addr, err)
		}
	}

	stats, err := r.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Nodes) != 3 {
		t.Fatalf("stats carry %d node records, want 3", len(stats.Nodes))
	}
	dead := stats.Nodes[1]
	if dead.Healthy {
		t.Error("killed node still marked healthy")
	}
	if dead.Ejections == 0 {
		t.Error("killed node shows no ejection")
	}
	if dead.Failovers == 0 {
		t.Error("no failovers recorded for reads the dead primary lost")
	}
	if dead.ReplicaWriteMisses == 0 {
		t.Error("no write misses recorded for the dead replica")
	}
	if dead.LastError == "" {
		t.Error("ejected node carries no last_error")
	}
	if !stats.Nodes[0].Healthy || !stats.Nodes[2].Healthy {
		t.Error("surviving nodes marked unhealthy")
	}
	if stats.RoutingEpoch != 1 || stats.Replicas != 2 || stats.MapFingerprint == "" {
		t.Errorf("routing metadata = (epoch %d, replicas %d, map %q)",
			stats.RoutingEpoch, stats.Replicas, stats.MapFingerprint)
	}
}

// TestRouterReinstatement: an ejected node that answers again (here: a
// different healthy daemon is irrelevant — the same one comes back) rejoins
// the pool via the probe loop.
func TestRouterReinstatement(t *testing.T) {
	k := startKillableNode(t, unpacedNodeCfg(64))
	healthy := startKillableNode(t, unpacedNodeCfg(64))
	r := startRouter(t, fastFailoverCfg([]string{healthy.addr, k.addr}, 2))

	buf := make([]byte, 64)
	server.FillPayload(buf, 1, 1, 1)
	if err := r.Write(1, buf); err != nil {
		t.Fatal(err)
	}

	// Eject node 1 by hand (its pool is intact — this is the probe loop's
	// reinstatement path, not the crash path).
	r.cur.nodes[1].noteFailure(server.ErrClientClosed)
	if r.cur.nodes[1].healthy.Load() {
		t.Fatal("noteFailure did not eject")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !r.cur.nodes[1].healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never reinstated a live node")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceStatsSurvivesNodeLoss pins the lenient aggregation path: with
// one node unreachable, ServiceStats still returns the cluster view — the
// dead node contributes an empty snapshot at its slice position (so the
// survivors' shard entries keep their node tags) and shows up ejected in
// the per-node health list. The strict NodeStats keeps failing, for callers
// that need all-or-nothing.
func TestServiceStatsSurvivesNodeLoss(t *testing.T) {
	nodes := []*killableNode{
		startKillableNode(t, unpacedNodeCfg(128)),
		startKillableNode(t, unpacedNodeCfg(128)),
		startKillableNode(t, unpacedNodeCfg(128)),
	}
	r := startRouter(t, fastFailoverCfg([]string{nodes[0].addr, nodes[1].addr, nodes[2].addr}, 2))

	nodes[0].kill()

	stats, err := r.ServiceStats()
	if err != nil {
		t.Fatalf("ServiceStats with a dead node: %v", err)
	}
	// unpacedNodeCfg serves 2 shards per node: the two survivors contribute
	// 4 entries, tagged with their true node indices.
	if len(stats.Shards) != 4 {
		t.Fatalf("aggregated %d shard entries, want 4 from the two survivors", len(stats.Shards))
	}
	for _, sh := range stats.Shards {
		if sh.Node != 1 && sh.Node != 2 {
			t.Errorf("shard entry tagged node %d, want only survivors 1 and 2", sh.Node)
		}
	}
	if stats.Nodes[0].Healthy {
		t.Error("dead node reported healthy in stats")
	}
	if _, err := r.NodeStats(); err == nil {
		t.Error("strict NodeStats succeeded with an unreachable node")
	}
}

// TestRouterFingerprintGuard: the epoch-versioned map makes the reversed-
// node-order mistake detectable — a router started with ExpectFingerprint
// over a reordered list refuses to serve, while the right order passes.
func TestRouterFingerprintGuard(t *testing.T) {
	_, addrs := startNodes(t, 2, unpacedNodeCfg(64))
	want := Config{Nodes: addrs, Replicas: 2}.Map().Fingerprint()

	r, err := NewRouter(Config{Nodes: addrs, Replicas: 2, ExpectFingerprint: want})
	if err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	r.Close()

	reversed := []string{addrs[1], addrs[0]}
	if _, err := NewRouter(Config{Nodes: reversed, Replicas: 2, ExpectFingerprint: want}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("reversed node order with ExpectFingerprint: err = %v, want fingerprint mismatch", err)
	}
	// Replication-factor drift is the same class of mistake.
	if _, err := NewRouter(Config{Nodes: addrs, Replicas: 1, ExpectFingerprint: want}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("changed replication factor with ExpectFingerprint: err = %v, want fingerprint mismatch", err)
	}
}

// TestRouterReplicationGeometry: replication shrinks the served space by K
// and refuses topologies it cannot stripe.
func TestRouterReplicationGeometry(t *testing.T) {
	_, addrs := startNodes(t, 3, unpacedNodeCfg(128))
	r := startRouter(t, Config{Nodes: addrs, Replicas: 3})
	// Each node spends a 128/3 = 42-block stripe per replica; the cluster
	// serves 3 × 42 = 126 addresses (striping floors, capacity is not
	// oversubscribed).
	if r.Blocks() != 126 {
		t.Errorf("K=3 over 3×128 blocks serves %d, want 126", r.Blocks())
	}

	// A node too small to hold even one block per stripe fails at dial.
	_, tiny := startNode(t, server.Config{Shards: 1, Blocks: 1, BlockBytes: 64, Unpaced: true})
	if _, err := NewRouter(Config{Nodes: []string{tiny, addrs[0]}, Replicas: 2}); err == nil ||
		!strings.Contains(err.Error(), "replication factor") {
		t.Errorf("unstripeable topology: err = %v", err)
	}
}

// TestRouterFailsOverDrainingNode: a daemon shutting down closes its
// listener and then its store, so connections it has already accepted
// answer store_closed until the process exits. That code describes the
// node, not the request, so the router fails over exactly as for a dead
// transport: with node 0's store closed behind a live listener, no Read,
// Write or ReadBatch member fails, node 0 is ejected, and the reads it lost
// count as failovers and the writes it missed as write misses. Node 0 is
// put back in the pool before each call, as the probe loop would (its pings
// still answer), so every path meets the draining node first.
func TestRouterFailsOverDrainingNode(t *testing.T) {
	stores, addrs := startNodes(t, 2, server.Config{Shards: 1, Blocks: 64, BlockBytes: 64, Unpaced: true})
	ccfg := fastFailoverCfg(addrs, 2)
	ccfg.ProbeEvery = -1
	r := startRouter(t, ccfg)
	buf := make([]byte, 64)
	for a := uint64(0); a < 8; a++ {
		server.FillPayload(buf, a, 1, a)
		if err := r.Write(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	stores[0].Close()

	var readFails, writeFails, batchFails int
	r.cur.nodes[0].noteSuccess()
	for a := uint64(0); a < 8; a++ {
		if data, err := r.Read(a); err != nil || server.CheckPayload(data, a) != nil {
			readFails++
		}
	}
	r.cur.nodes[0].noteSuccess()
	for a := uint64(0); a < 8; a++ {
		server.FillPayload(buf, a, 2, a)
		if err := r.Write(a, buf); err != nil {
			writeFails++
		}
	}
	r.cur.nodes[0].noteSuccess()
	results, err := r.ReadBatch("", []uint64{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		batchFails = 8
	}
	for a, res := range results {
		if res.Err != nil || server.CheckPayload(res.Data, uint64(a)) != nil {
			batchFails++
		}
	}
	if readFails+writeFails+batchFails > 0 {
		t.Errorf("draining node 0 failed %d/8 reads, %d/8 writes, %d/8 batch members; want 0",
			readFails, writeFails, batchFails)
	}
	stats, err := r.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	n0 := stats.Nodes[0]
	if n0.Ejections == 0 || n0.Failovers == 0 || n0.ReplicaWriteMisses == 0 {
		t.Errorf("draining node 0: %d ejections, %d failovers, %d write misses; want each > 0",
			n0.Ejections, n0.Failovers, n0.ReplicaWriteMisses)
	}
}

// drainingNode answers every member of every submission store_closed, as a
// store does for requests still queued when it closes.
type drainingNode struct{ stubNode }

func (drainingNode) Do(_ string, ops []server.Op) error {
	for i := range ops {
		ops[i].Err = server.ErrClosed
	}
	return nil
}

// TestRouterBatchMemberFailover: a batch member that comes back with a
// recoverable per-member code takes the same failover walk as a member of a
// failed sub-batch — served by the next replica, not passed through.
func TestRouterBatchMemberFailover(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go server.Serve(l, drainingNode{stubNode{blocks: 64, block: make([]byte, 64)}})
	_, live := startNode(t, server.Config{Shards: 1, Blocks: 64, BlockBytes: 64, Unpaced: true})
	ccfg := fastFailoverCfg([]string{l.Addr().String(), live}, 2)
	ccfg.ProbeEvery = -1
	r := startRouter(t, ccfg)
	batch := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	buf := make([]byte, 64)
	for _, a := range batch {
		server.FillPayload(buf, a, 1, a)
		if err := r.Write(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	r.cur.nodes[0].noteSuccess() // plan the even members onto the draining node
	results, err := r.ReadBatch("", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || server.CheckPayload(res.Data, batch[i]) != nil {
			t.Errorf("member %d (addr %d) not failed over: %v", i, batch[i], res.Err)
		}
	}
	if st := r.cur.nodes[0].status(); st.Healthy || st.Failovers == 0 {
		t.Errorf("draining node 0 after the batch: healthy %v, %d failovers; want ejected with failovers", st.Healthy, st.Failovers)
	}
}
