package cluster

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"tcoram/internal/server"
	"tcoram/internal/sim"
	"tcoram/internal/workload"
)

// TestClusterReadBatchFanOut: one client batch splits by owning node, fans
// out through each node's own batch_read verb, and reassembles in request
// order — the cluster serving path of the tentpole's batch verb.
func TestClusterReadBatchFanOut(t *testing.T) {
	nodeCfg := server.Config{
		Shards:      2,
		Blocks:      512,
		BlockBytes:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 200,
		Rates:       []uint64{1800},
	}
	_, addrs := startNodes(t, 2, nodeCfg)
	r := startRouter(t, fastFailoverCfg(addrs, 1))

	// Addresses interleave across both nodes (addr mod 2 picks the node).
	batch := []uint64{0, 1, 2, 3, 510, 511, 1022, 1023}
	for _, a := range batch {
		buf := make([]byte, 64)
		server.FillPayload(buf, a, 3, a)
		if err := r.Write(a, buf); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}

	results, err := r.ReadBatch("", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("batch returned %d results for %d addresses", len(results), len(batch))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("member %d (addr %d): %v", i, batch[i], res.Err)
		}
		want := make([]byte, 64)
		server.FillPayload(want, batch[i], 3, batch[i])
		if !bytes.Equal(res.Data, want) {
			t.Errorf("member %d (addr %d): wrong payload", i, batch[i])
		}
	}

	// A member out of the cluster's range fails only its own slot.
	mixed, err := r.ReadBatch("", []uint64{1, 99999, 2})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0].Err != nil || mixed[2].Err != nil {
		t.Fatalf("valid members failed: %v / %v", mixed[0].Err, mixed[2].Err)
	}
	if server.ErrorCode(mixed[1].Err) != server.CodeOutOfRange {
		t.Errorf("out-of-range member error = %v, want code %s", mixed[1].Err, server.CodeOutOfRange)
	}

	// Over the protocol-wide address cap the whole request is refused with
	// the coded error, not torn down per-member.
	big := make([]uint64, server.MaxBatchAddrs+1)
	if _, err := r.ReadBatch("", big); server.ErrorCode(err) != server.CodeBatchTooLarge {
		t.Errorf("oversized cluster batch error = %v, want code %s", err, server.CodeBatchTooLarge)
	}
	if _, err := r.ReadBatch("", nil); server.ErrorCode(err) != server.CodeBadRequest {
		t.Errorf("empty cluster batch error = %v, want code %s", err, server.CodeBadRequest)
	}
}

// TestClusterBatchPartialFailure kills a node mid-batch-workload and pins
// the two degradation contracts: with replication the dead node's members
// fail over member-by-member and the batch still answers in full; without
// replication only the dead node's members fail, each with its own coded
// per-member error, while the surviving node's members are served.
func TestClusterBatchPartialFailure(t *testing.T) {
	nodeCfg := server.Config{
		Shards:      2,
		Blocks:      512,
		BlockBytes:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 200,
		Rates:       []uint64{1800},
	}

	t.Run("replicated", func(t *testing.T) {
		var nodes []*killableNode
		var addrs []string
		for i := 0; i < 3; i++ {
			k := startKillableNode(t, nodeCfg)
			nodes = append(nodes, k)
			addrs = append(addrs, k.addr)
		}
		r := startRouter(t, fastFailoverCfg(addrs, 2))

		batch := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
		for _, a := range batch {
			buf := make([]byte, 64)
			server.FillPayload(buf, a, 5, a)
			if err := r.Write(a, buf); err != nil {
				t.Fatalf("write %d: %v", a, err)
			}
		}

		nodes[1].kill()
		// The very next batch may still plan members onto the dead node
		// (probe hasn't ejected it yet): the sub-batch fails as a whole and
		// every member must degrade to the replica-failover read path.
		results, err := r.ReadBatch("", batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Errorf("member %d (addr %d) lost despite a surviving replica: %v", i, batch[i], res.Err)
				continue
			}
			if err := server.CheckPayload(res.Data, batch[i]); err != nil {
				t.Errorf("member %d (addr %d): %v", i, batch[i], err)
			}
		}
	})

	t.Run("unreplicated", func(t *testing.T) {
		k0 := startKillableNode(t, nodeCfg)
		k1 := startKillableNode(t, nodeCfg)
		ccfg := fastFailoverCfg([]string{k0.addr, k1.addr}, 1)
		ccfg.RetryAttempts = 2
		r := startRouter(t, ccfg)

		batch := []uint64{0, 1, 2, 3} // even addrs on node 0, odd on node 1
		for _, a := range batch {
			buf := make([]byte, 64)
			server.FillPayload(buf, a, 5, a)
			if err := r.Write(a, buf); err != nil {
				t.Fatalf("write %d: %v", a, err)
			}
		}

		k1.kill()
		results, err := r.ReadBatch("", batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if batch[i]%2 == 0 {
				if res.Err != nil {
					t.Errorf("member %d (addr %d) on the surviving node failed: %v", i, batch[i], res.Err)
				}
				continue
			}
			if server.ErrorCode(res.Err) != server.CodeUnavailable {
				t.Errorf("member %d (addr %d) on the dead unreplicated node: err = %v, want code %s",
					i, batch[i], res.Err, server.CodeUnavailable)
			}
		}
	})
}

// TestClusterCDSIWANEndToEnd is the production-scenario acceptance run (a
// named CI race step): an oblivious contact-discovery-shaped workload —
// two tenants, zipf hot keys, batched submissions — over a WAN-shaped
// client link against a proxy fronting two batched, dynamically-paced
// daemons. Zero lost, zero corrupted, and each tenant's aggregated leakage
// account replays exactly from the public per-shard transition counts.
func TestClusterCDSIWANEndToEnd(t *testing.T) {
	nodeCfg := server.Config{
		Shards:        2,
		Blocks:        512,
		BlockBytes:    64,
		Backend:       server.BackendBatched,
		BatchK:        4,
		EvictEvery:    4,
		ClockHz:       1_000_000,
		ORAMLatency:   200,
		Rates:         []uint64{400, 900, 1800, 3600}, // |R| = 4 → 2 bits per transition
		EpochFirstLen: 20_000,                         // 20 ms first epoch, growth 2
		EpochGrowth:   2,
	}
	ccfg := Config{
		Epoch:    1,
		Replicas: 1,
		// Generous sub-budgets: this run pins the accounting, not the trip
		// (the trip contract is pinned server-side).
		TenantBudgets: map[string]float64{"alice": 1 << 20, "bob": 1 << 20},
		ProbeEvery:    20 * time.Millisecond,
	}
	_, proxyAddr, stores := startCluster(t, 2, nodeCfg, ccfg)

	statsClient, err := server.Dial(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer statsClient.Close()

	var wg sync.WaitGroup
	reports := make(map[string]sim.ServiceReport, 2)
	var mu sync.Mutex
	for i, tenant := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			rep, err := server.RunLoad(
				func() (server.KV, error) { return server.Dial(proxyAddr) },
				func() (server.Stats, error) { return statsClient.Stats() },
				server.LoadConfig{
					Scenario:     workload.KVCDSI,
					Clients:      4,
					OpsPerClient: 50,
					Blocks:       1024,
					BlockBytes:   64,
					Seed:         int64(100 + i),
					Tenant:       tenant,
					BatchSize:    4,
					WAN:          server.WANConfig{KBps: 2048, RTT: 4 * time.Millisecond},
				})
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			mu.Lock()
			reports[tenant] = rep
			mu.Unlock()
		}(i, tenant)
	}
	wg.Wait()

	for tenant, rep := range reports {
		if rep.Lost != 0 {
			t.Errorf("%s: %d lost operations", tenant, rep.Lost)
		}
		if rep.Corrupted != 0 {
			t.Errorf("%s: %d corrupted reads", tenant, rep.Corrupted)
		}
		if rep.Ops != 200 {
			t.Errorf("%s: completed %d ops, want 200", tenant, rep.Ops)
		}
	}

	// Both tenants were active across epoch transitions (top up briefly if
	// the workload finished inside epoch 0 on some shard).
	topup, err := server.Dial(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer topup.Close()
	var agg server.Stats
	deadline := time.Now().Add(10 * time.Second)
	for {
		agg, err = statsClient.Stats()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ts := range agg.Tenants {
			if (ts.Tenant == "alice" || ts.Tenant == "bob") && ts.Transitions > 0 {
				n++
			}
		}
		if n == 2 || time.Now().After(deadline) {
			break
		}
		for _, tenant := range []string{"alice", "bob"} {
			if err := topup.Do(tenant, []server.Op{{Addr: 1}}); err != nil {
				t.Fatalf("top-up %s read: %v", tenant, err)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Per-tenant replay: with |R| = 4 every charged transition publishes
	// exactly 2 bits, so each tenant's aggregated leaked_bits must equal
	// 2 × its cluster-wide transition count — and that count must itself be
	// the sum of the public per-shard attributions across every node.
	byName := map[string]server.TenantStat{}
	for _, ts := range agg.Tenants {
		byName[ts.Tenant] = ts
	}
	for _, tenant := range []string{"alice", "bob"} {
		ts, ok := byName[tenant]
		if !ok {
			t.Fatalf("no %s row in aggregated tenant stats (%+v)", tenant, agg.Tenants)
		}
		if ts.Transitions == 0 {
			t.Errorf("%s: no charged transitions within the deadline", tenant)
		}
		if want := 2 * float64(ts.Transitions); ts.LeakedBits != want {
			t.Errorf("%s: aggregated leaked_bits = %v over %d transitions, want %v",
				tenant, ts.LeakedBits, ts.Transitions, want)
		}
		if ts.BudgetBits != 1<<20 || ts.Exceeded {
			t.Errorf("%s: budget row = %+v, want the cluster sub-budget un-tripped", tenant, ts)
		}
		var shardSum uint64
		for _, st := range stores {
			for _, sh := range st.Stats().Shards {
				shardSum += sh.TenantTransitions[tenant]
			}
		}
		if shardSum < ts.Transitions {
			t.Errorf("%s: aggregated %d transitions, per-shard replay sums to %d",
				tenant, ts.Transitions, shardSum)
		}
	}

	// The WAN-shaped, batched workload still rode paced slot grids: both
	// nodes' shards served, nothing failed.
	for _, sh := range agg.Shards {
		if sh.Failed {
			t.Errorf("node %d shard %d reported failure", sh.Node, sh.Shard)
		}
		if sh.RealAccesses+sh.DummyAccesses == 0 {
			t.Errorf("node %d shard %d issued no accesses — its slot grid is dead", sh.Node, sh.Shard)
		}
	}
}
