package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tcoram/internal/leakage"
	"tcoram/internal/server"
)

// gateCount stripes the migration gate: an RWMutex per stripe serializes a
// client operation with a migration copy of the same address stripe, so the
// watermark can never advance past an address mid-operation (read-old /
// write-new races are excluded by construction). 256 stripes keep the odds
// of an unrelated client blocking behind a copy below 0.4%.
const gateCount = 256

// topology is one routing epoch's data plane: the versioned map, the dialed
// nodes in map order, and the learned per-stripe capacity.
type topology struct {
	m      NodeMap
	nodes  []*node
	stripe uint64
	blocks uint64
}

// Router is the cluster's data plane: it implements server.KV by routing
// every op of a submission to the K replicas owning its address (NodeMap
// above the target store's own ShardOf), failing over across replicas with
// a recoverable-vs-fatal error taxonomy, and server.Service by shims over
// that Do plus an aggregation of every node's stats into one cluster-wide
// view with a single leakage budget and the routing epoch attached.
// Because it is a server.Service, the standard daemon loop (server.Serve)
// turns it into a TCP proxy — cmd/oramproxy is nothing but that
// composition.
//
// All methods are safe for concurrent use.
type Router struct {
	cfg        Config
	cur        topology
	prev       *topology // previous epoch's topology, nil unless migrating
	target     uint64    // cluster-wide address space once fully on cur
	served     atomic.Uint64
	blockBytes int
	nodeBlocks []uint64 // per-node capacity learned at dial time

	// Migration state. The watermark splits the shared address space
	// [0, migrateEnd) into a migrated part served by cur and an unmigrated
	// part served by prev: ascending scans (grow) have migrated = [0, w),
	// descending scans (shrink) have migrated = [w, migrateEnd) — the
	// direction is chosen so a copy's writes can only land on old-layout
	// slots whose blocks are already migrated (see migrate.go). While
	// migrating, only the shared space is served; the remainder of the
	// target space opens after the copy and scrub phases complete.
	watermark  atomic.Uint64
	migrating  atomic.Bool
	descending bool
	migrateEnd uint64
	copied     atomic.Uint64
	gates      [gateCount]sync.RWMutex

	// admit is the judged cluster-wide account tenant admission reads
	// instead of fanning a stats round-trip onto every data op: the node
	// accounts merged and judged at the last stats poll — NewRouter's, then
	// every probe tick's and every ServiceStats'.
	admit atomic.Pointer[leakage.Account]

	// free recycles Do's working sets (see batch).
	free chan *batch

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewRouter dials every configured node, learns the cluster geometry from
// each node's stats (block count and size), validates the node map's
// fingerprint if one is expected, and returns a serving router. If a
// previous topology is configured it also dials any retiring nodes and
// starts the migration plane. It fails fast if any node is unreachable, if
// nodes disagree on block size, if the requested Blocks exceeds what the
// topology can hold, or if the map fingerprint does not match.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Map()
	if cfg.ExpectFingerprint != "" && m.Fingerprint() != cfg.ExpectFingerprint {
		return nil, fmt.Errorf("cluster: node map fingerprint %s does not match expected %s — the node list or replication factor drifted from the map this data was written under (epoch %d)",
			m.Fingerprint(), cfg.ExpectFingerprint, m.Epoch)
	}
	r := &Router{cfg: cfg, free: make(chan *batch, batchFree), stop: make(chan struct{})}
	r.cur.m = m
	ok := false
	defer func() {
		if !ok {
			r.Close()
		}
	}()

	byAddr := make(map[string]*node, len(m.Nodes))
	for i, addr := range m.Nodes {
		n, err := dialNode(i, addr, cfg.ConnsPerNode)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		r.cur.nodes = append(r.cur.nodes, n)
		byAddr[addr] = n
	}

	// One stats round-trip per node doubles as the liveness check, teaches
	// the router each node's capacity and seeds the admission account.
	nodeStats, minBlocks, err := r.learnGeometry(r.cur.nodes)
	if err != nil {
		return nil, err
	}
	r.aggregate(nodeStats)
	if minBlocks < uint64(m.Replicas) {
		return nil, fmt.Errorf("cluster: replication factor %d exceeds the smallest node's %d blocks", m.Replicas, minBlocks)
	}
	// Modulo routing fills nodes evenly and each node spends 1/K of its
	// space per replica stripe, so the smallest node bounds the addressable
	// space: every global address below N×(min/K) maps to valid stripe-local
	// addresses on all K of its owners.
	r.cur.stripe = m.Stripe(minBlocks)
	r.cur.blocks = m.Blocks(minBlocks)
	r.target = r.cur.blocks
	if cfg.Blocks > 0 {
		if cfg.Blocks > r.target {
			return nil, fmt.Errorf("cluster: %d blocks requested but the %d nodes hold at most %d (smallest node: %d blocks, %d replicas)",
				cfg.Blocks, len(r.cur.nodes), r.target, minBlocks, m.Replicas)
		}
		r.target = cfg.Blocks
	}
	r.served.Store(r.target)

	if prevMap, hasPrev := cfg.PrevMap(); hasPrev {
		if err := r.initMigration(prevMap, byAddr); err != nil {
			return nil, err
		}
	}
	if cfg.ProbeEvery > 0 {
		r.wg.Add(1)
		go r.prober(cfg.ProbeEvery)
	}
	ok = true
	return r, nil
}

// learnGeometry polls each node's stats, enforces a uniform block size, and
// returns the snapshots with the smallest node capacity.
func (r *Router) learnGeometry(nodes []*node) ([]server.Stats, uint64, error) {
	minBlocks := uint64(0)
	stats := make([]server.Stats, len(nodes))
	for i, n := range nodes {
		st, err := n.pick().Stats()
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: node %d (%s): %w", n.index, n.addr, err)
		}
		if st.Blocks == 0 {
			return nil, 0, fmt.Errorf("cluster: node %d (%s) reports zero blocks", n.index, n.addr)
		}
		if r.blockBytes == 0 {
			r.blockBytes = st.BlockBytes
		} else if st.BlockBytes != r.blockBytes {
			return nil, 0, fmt.Errorf("cluster: node %d (%s) serves %d-byte blocks, the cluster serves %d",
				n.index, n.addr, st.BlockBytes, r.blockBytes)
		}
		r.nodeBlocks = append(r.nodeBlocks, st.Blocks)
		if minBlocks == 0 || st.Blocks < minBlocks {
			minBlocks = st.Blocks
		}
		stats[i] = st
	}
	return stats, minBlocks, nil
}

// Blocks returns the cluster-wide address space the router serves right
// now. While a migration is active this is the space shared by both
// topologies; once the copy and scrub phases finish it grows (or has
// already shrunk) to the new topology's capacity.
func (r *Router) Blocks() uint64 { return r.served.Load() }

// BlockBytes returns the block payload size the nodes agreed on.
func (r *Router) BlockBytes() int { return r.blockBytes }

// Nodes returns the current topology's node count.
func (r *Router) Nodes() int { return len(r.cur.nodes) }

// Epoch returns the routing epoch the router serves under.
func (r *Router) Epoch() uint64 { return r.cur.m.Epoch }

// Fingerprint returns the current node map's fingerprint — print it, keep
// it, and hand it back via ExpectFingerprint on the next proxy start.
func (r *Router) Fingerprint() string { return r.cur.m.Fingerprint() }

// allNodes returns every live node exactly once: the current topology's,
// plus — while a migration is active — the retiring nodes that are only in
// the previous one.
func (r *Router) allNodes() []*node {
	if r.prev == nil || !r.migrating.Load() {
		return r.cur.nodes
	}
	out := make([]*node, 0, len(r.cur.nodes)+len(r.prev.nodes))
	out = append(out, r.cur.nodes...)
	for _, n := range r.prev.nodes {
		if n.index < 0 { // prev-only nodes carry negative indices
			out = append(out, n)
		}
	}
	return out
}

// gate returns the migration stripe lock covering addr.
func (r *Router) gate(addr uint64) *sync.RWMutex {
	return &r.gates[addr%gateCount]
}

// topoFor resolves which epoch's topology serves addr right now: during a
// migration, unmigrated addresses (below the watermark on descending scans,
// at or above it on ascending ones) that the old topology can hold are
// still owned by the previous epoch; everything else by the current one.
func (r *Router) topoFor(addr uint64) *topology {
	if r.migrating.Load() {
		w := r.watermark.Load()
		migrated := addr < w
		if r.descending {
			migrated = addr >= w
		}
		if !migrated && addr < r.prev.blocks {
			return r.prev
		}
	}
	return &r.cur
}

func (r *Router) check(addr uint64) error {
	if served := r.served.Load(); addr >= served {
		return server.Errorf(server.CodeOutOfRange, "cluster: address %d out of range (%d blocks)", addr, served)
	}
	return nil
}

// Do serves one submission across the cluster. A lone op goes straight to
// its replica walk, whose first step is what planning would pick. A batch
// of reads is planned member by member onto the first healthy replica of
// its address's owning set, one sub-batch per node is started on that
// node's client, and Do then waits on each in node order: the clients
// pipeline, so every sub-batch is in flight at once with no goroutine of
// its own. The results reassemble in request order. A member its planned
// node did not serve — the sub-batch failed as a whole (the node died, or
// refused it: say its k is below the sub-batch), or the member failed on
// its own — takes the same walk, so one bad node costs its members
// latency, not answers.
func (r *Router) Do(tenant string, ops []server.Op) error {
	if err := server.CheckOps(ops, server.MaxBatchAddrs); err != nil {
		return err
	}
	if err := r.admit.Load().Refusal(tenant); err != nil {
		return &server.Error{Code: server.CodeTenantBudget, Msg: "cluster: " + err.Error()}
	}
	// Hold every distinct migration gate the submission touches, acquired in
	// ascending stripe order — the migrator takes one gate at a time, so
	// ordered acquisition cannot deadlock against it or another submission.
	var held [gateCount]bool
	for _, op := range ops {
		held[op.Addr%gateCount] = true
	}
	for gi := range held {
		if held[gi] {
			r.gates[gi].RLock()
		}
	}
	defer func() {
		for gi := range held {
			if held[gi] {
				r.gates[gi].RUnlock()
			}
		}
	}()
	b := r.takeBatch()
	defer r.putBatch(b)

	if len(ops) == 1 {
		if ops[0].Err = r.check(ops[0].Addr); ops[0].Err == nil {
			r.walk(&b.one, r.topoFor(ops[0].Addr), tenant, &ops[0])
		}
		return nil
	}
	r.fanOut(b, tenant, ops)
	return nil
}

// fanOut serves Do's batch of reads with b's members, sub-ops and calls.
// Kept out of Do, so a lone op's stack does not carry the batch path's
// locals.
func (r *Router) fanOut(b *batch, tenant string, ops []server.Op) {
	var repBuf [8]int
	for i := range ops {
		if ops[i].Err = r.check(ops[i].Addr); ops[i].Err != nil {
			continue
		}
		t := r.topoFor(ops[i].Addr)
		reps := t.m.ReplicaNodes(ops[i].Addr, repBuf[:0])
		pri := 0
		for p, ni := range reps {
			if t.nodes[ni].healthy.Load() {
				pri = p
				break
			}
		}
		b.ms = append(b.ms, member{i: i, t: t, pri: pri, n: t.nodes[reps[pri]]})
	}
	// Group by serving node; a node's members keep their request order.
	ms := b.ms
	slices.SortStableFunc(ms, func(a, b member) int { return cmp.Compare(a.n.index, b.n.index) })
	for _, m := range ms {
		// The member's Data is its read buffer, which the node's client
		// fills in place when it has the room.
		b.sub = append(b.sub, server.Op{Addr: m.t.m.ReplicaLocal(ops[m.i].Addr, m.pri, m.t.stripe), Data: ops[m.i].Data})
	}
	sub := b.sub
	for lo := 0; lo < len(ms); {
		hi := lo + 1
		for hi < len(ms) && ms[hi].n == ms[lo].n {
			hi++
		}
		b.parts = append(b.parts, part{n: ms[lo].n, lo: lo, hi: hi, call: ms[lo].n.pick().Start(tenant, sub[lo:hi])})
		lo = hi
	}
	for _, p := range b.parts {
		// A refusal of the whole sub-batch becomes every member's own
		// failure.
		err := p.call.Wait()
		if err == nil {
			p.n.noteSuccess()
			continue
		}
		if server.IsRecoverable(err) {
			p.n.noteFailure(err)
		}
		for j := p.lo; j < p.hi; j++ {
			sub[j].Err = err
		}
	}
	for j, m := range ms {
		op := &ops[m.i]
		if sub[j].Err != nil {
			r.walk(&b.one, m.t, tenant, op) // which decides whether the failure was the node's
			continue
		}
		op.Data = sub[j].Data
		if m.pri > 0 {
			// Served by a successor: the primary lost this read.
			m.t.nodes[m.t.m.PrimaryOf(op.Addr)].failovers.Add(1)
		}
	}
}

// member is one planned read of a batch: ops[i], to be served by replica
// pri of its owning set in topology t, which is node n.
type member struct {
	i   int
	t   *topology
	pri int
	n   *node
}

// part is one node's sub-batch in flight: the members ms[lo:hi], started on
// node n's client.
type part struct {
	n      *node
	lo, hi int
	call   server.Call
}

// batch is one Do's working set: the planned members, their sub-ops, the
// sub-batches in flight and walk's one-op submission, which the node
// client's call record holds while it is in flight.
type batch struct {
	ms    []member
	sub   []server.Op
	parts []part
	one   [1]server.Op
}

// batchFree bounds the router's free list of batch records. The list fills
// only to the most submissions the router has had in flight at once, and a
// record whose slices have grown to a batch of 8 over two nodes holds about
// 1 KiB, so even a full list costs no memory that shows next to the node
// clients' frame buffers.
const batchFree = 64

// takeBatch takes a batch record from the router's free list — a buffered
// channel rather than a sync.Pool, which drops a random share of its Puts
// under the race detector and would make the routed path's allocation
// count depend on the build — or builds one with room for a part per node.
func (r *Router) takeBatch() *batch {
	select {
	case b := <-r.free:
		return b
	default:
		return &batch{parts: make([]part, 0, len(r.cur.nodes))}
	}
}

// putBatch clears b of every op, buffer and call it refers to, so the free
// list pins nothing of its last submission's, and returns it to the list
// unless the list is full.
func (r *Router) putBatch(b *batch) {
	clear(b.ms)
	clear(b.sub)
	clear(b.parts)
	b.ms, b.sub, b.parts = b.ms[:0], b.sub[:0], b.parts[:0]
	b.one = [1]server.Op{}
	select {
	case r.free <- b:
	default:
	}
}

// walk is the router's one failover walk: it serves op through topology t's
// replicas of op.Addr in priority order, one call each. A read takes the
// first that answers, healthy replicas first and ejected ones as a last
// resort. A write goes to every replica — ejected ones too, so a recovering
// node diverges as little as possible — and succeeds on one ack; replicas
// that missed it count as replica_write_misses, the measure of how stale a
// rejoining node is. A recoverable failure ejects the node and moves on; a
// fatal one ends the walk, since every replica would answer the same way.
// While no replica serves, the walk backs off and passes again,
// RetryAttempts times.
//
// one is the walk's one-op submission, the caller's batch record's.
func (r *Router) walk(one *[1]server.Op, t *topology, tenant string, op *server.Op) {
	var repBuf [8]int
	reps := t.m.ReplicaNodes(op.Addr, repBuf[:0])
	passes := 2 // a read's second pass tries the ejected replicas it skipped
	if op.Write {
		passes = 1
	}
	var lastErr error
	for attempt := 0; attempt < r.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(r.cfg.RetryBackoff.Delay(attempt - 1))
		}
		acked := 0
		var tried [16]bool // replica priorities pass 0 tried this attempt
		for pass := 0; pass < passes; pass++ {
			for pri, ni := range reps {
				n := t.nodes[ni]
				if pass == 0 && !op.Write && !n.healthy.Load() {
					continue // healthy replicas first
				}
				if pass == 1 && (pri >= len(tried) || tried[pri]) {
					continue // already failed this attempt
				}
				if pri < len(tried) {
					tried[pri] = true
				}
				one[0] = server.Op{Addr: t.m.ReplicaLocal(op.Addr, pri, t.stripe), Write: op.Write, Data: op.Data}
				err := n.pick().Start(tenant, one[:]).Wait()
				if err = cmp.Or(err, one[0].Err); err == nil {
					n.noteSuccess()
					if op.Write {
						acked++
						continue
					}
					if pri > 0 {
						// Served by a successor: the primary lost this read.
						t.nodes[reps[0]].failovers.Add(1)
					}
					op.Data, op.Err = one[0].Data, nil
					return
				}
				if !server.IsRecoverable(err) {
					op.Err = err
					return
				}
				n.noteFailure(err)
				lastErr = err
			}
		}
		if acked > 0 {
			if acked < len(reps) {
				for _, ni := range reps {
					if !t.nodes[ni].healthy.Load() {
						t.nodes[ni].writeMisses.Add(1)
					}
				}
			}
			op.Err = nil
			return
		}
	}
	op.Err = server.Errorf(server.CodeUnavailable, "cluster: address %d: none of its %d replicas served it: %v", op.Addr, len(reps), lastErr)
}

// Read fetches a block from the first healthy replica of its owning set.
func (r *Router) Read(addr uint64) ([]byte, error) { return r.TenantRead("", addr) }

// Write stores a block on every replica of its owning set.
func (r *Router) Write(addr uint64, data []byte) error { return r.TenantWrite("", addr, data) }

// TenantRead is a one-read Do.
func (r *Router) TenantRead(tenant string, addr uint64) ([]byte, error) {
	ops := [1]server.Op{{Addr: addr}}
	err := r.Do(tenant, ops[:])
	return ops[0].Data, cmp.Or(err, ops[0].Err)
}

// TenantWrite is a one-write Do.
func (r *Router) TenantWrite(tenant string, addr uint64, data []byte) error {
	ops := [1]server.Op{{Addr: addr, Write: true, Data: data}}
	err := r.Do(tenant, ops[:])
	return cmp.Or(err, ops[0].Err)
}

// ReadBatch is a batch-of-reads Do with index-aligned results.
func (r *Router) ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error) {
	return server.ReadBatchVia(r, tenant, addrs)
}

// NodeStats polls every current-topology node concurrently and returns the
// raw per-node snapshots, indexed by node. It fails on the first
// unreachable node; ServiceStats is the lenient aggregation that keeps
// serving through a node loss.
func (r *Router) NodeStats() ([]server.Stats, error) {
	stats, errs := r.pollNodes()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// pollNodes fetches every current node's stats concurrently, returning the
// snapshots and a parallel error slice.
func (r *Router) pollNodes() ([]server.Stats, []error) {
	out := make([]server.Stats, len(r.cur.nodes))
	errs := make([]error, len(r.cur.nodes))
	var wg sync.WaitGroup
	for i, n := range r.cur.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			st, err := n.pick().Stats()
			if err != nil {
				if server.IsRecoverable(err) {
					n.noteFailure(err)
				}
				errs[i] = fmt.Errorf("cluster: node %d (%s): %w", n.index, n.addr, err)
				return
			}
			n.noteSuccess()
			out[i] = st
		}(i, n)
	}
	wg.Wait()
	return out, errs
}

// ServiceStats aggregates every node's snapshot into one cluster-wide
// server.Stats (Aggregate, under the router's budgets) and attaches the
// routing epoch, map fingerprint, per-node health, and migration progress.
// An unreachable node contributes an empty snapshot (and shows up ejected
// in nodes[]) instead of failing the whole poll — the stats plane must
// survive exactly the node loss the data plane survives. The judged
// account becomes the admission account.
func (r *Router) ServiceStats() (server.Stats, error) {
	stats, _ := r.pollNodes()
	agg := r.aggregate(stats)
	agg.RoutingEpoch = r.cur.m.Epoch
	agg.MapFingerprint = r.cur.m.Fingerprint()
	agg.Replicas = r.cur.m.Replicas
	agg.MigrationActive = r.migrating.Load()
	agg.MigrationWatermark = r.watermark.Load()
	for _, n := range r.allNodes() {
		agg.Nodes = append(agg.Nodes, n.status())
	}
	return agg, nil
}

// aggregate is Aggregate under the router's budgets; its judged account
// becomes the one tenant admission reads.
func (r *Router) aggregate(nodes []server.Stats) server.Stats {
	agg := Aggregate(nodes, r.Blocks(), r.blockBytes, r.cfg.LeakageBudgetBits, r.cfg.TenantBudgets)
	acct := agg.Account
	r.admit.Store(&acct)
	return agg
}

// Aggregate merges per-node stats into the cluster view: the per-shard
// entries of all nodes concatenated (tagged with their node index, so
// rate_changes histories stay per-shard and adversary replay works
// unchanged), and the node accounts merged and judged against the cluster's
// session budget and tenant sub-budgets. Node-level budgets, if any node
// was started with one, are dropped: the cluster session has one account.
// Split out of ServiceStats so tests (and offline tooling fed per-node
// records) can aggregate without a live router.
func Aggregate(nodes []server.Stats, blocks uint64, blockBytes int, budgetBits float64, tenantBudgets map[string]float64) server.Stats {
	agg := server.Stats{Blocks: blocks, BlockBytes: blockBytes}
	for node, st := range nodes {
		for _, sh := range st.Shards {
			sh.Node = node
			agg.Shards = append(agg.Shards, sh)
		}
		agg.Account.Merge(st.Account)
	}
	agg.Account.Judge(budgetBits, tenantBudgets)
	return agg
}

// Close stops the probe and migration loops and tears down every pooled
// connection. The daemons keep running — their slot grids, and therefore
// their timing behaviour, are independent of whether a proxy is attached.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		r.wg.Wait()
		closeNode := func(n *node) {
			if err := n.close(); err != nil && r.closeErr == nil {
				r.closeErr = err
			}
		}
		for _, n := range r.cur.nodes {
			closeNode(n)
		}
		if r.prev != nil {
			for _, n := range r.prev.nodes {
				if n.index < 0 {
					closeNode(n)
				}
			}
		}
	})
	return r.closeErr
}
