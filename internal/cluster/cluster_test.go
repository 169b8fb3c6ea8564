package cluster

import (
	"strings"
	"testing"
	"time"

	"tcoram/internal/core"
	"tcoram/internal/leakage"
	"tcoram/internal/server"
)

// TestRoutingPartition pins the routing function's two load-bearing
// properties for a range of cluster sizes: every address is owned by
// exactly one (node, local) pair — no address served by two nodes — and the
// mapping is a pure function of the address, so it is identical across
// proxy restarts by construction.
func TestRoutingPartition(t *testing.T) {
	const blocks = 4096
	for _, n := range []int{1, 2, 3, 5, 8} {
		seen := make(map[[2]uint64]uint64, blocks)
		for addr := uint64(0); addr < blocks; addr++ {
			node := NodeOf(addr, n)
			if node < 0 || node >= n {
				t.Fatalf("n=%d: NodeOf(%d) = %d out of range", n, addr, node)
			}
			local := LocalAddr(addr, n)
			key := [2]uint64{uint64(node), local}
			if prev, dup := seen[key]; dup {
				t.Fatalf("n=%d: addresses %d and %d both land on node %d local %d", n, prev, addr, node, local)
			}
			seen[key] = addr
			if back := GlobalAddr(local, node, n); back != addr {
				t.Fatalf("n=%d: GlobalAddr(LocalAddr(%d), NodeOf(%d)) = %d", n, addr, addr, back)
			}
			// Re-evaluation gives the same owner: the function has no state
			// to drift between restarts.
			if NodeOf(addr, n) != node || LocalAddr(addr, n) != local {
				t.Fatalf("n=%d: routing of %d is not deterministic", n, addr)
			}
		}
		// Modulo routing fills nodes evenly: every node's local space for
		// `blocks` global addresses is at most ceil(blocks/n).
		perNode := make(map[int]uint64)
		for addr := uint64(0); addr < blocks; addr++ {
			if l := LocalAddr(addr, n); l >= perNode[NodeOf(addr, n)] {
				perNode[NodeOf(addr, n)] = l + 1
			}
		}
		limit := (uint64(blocks) + uint64(n) - 1) / uint64(n)
		for node, used := range perNode {
			if used > limit {
				t.Fatalf("n=%d: node %d needs %d local blocks, want ≤ %d", n, node, used, limit)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; empty = valid
	}{
		{"no nodes", Config{}, "no nodes"},
		{"empty addr", Config{Nodes: []string{"a:1", ""}}, "empty address"},
		{"duplicate node", Config{Nodes: []string{"a:1", "b:2", "a:1"}}, "same address"},
		{"negative conns", Config{Nodes: []string{"a:1"}, ConnsPerNode: -1}, "ConnsPerNode"},
		{"negative budget", Config{Nodes: []string{"a:1"}, LeakageBudgetBits: -1}, "LeakageBudgetBits"},
		{"ok", Config{Nodes: []string{"a:1", "b:2"}}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseNodes(t *testing.T) {
	got, err := ParseNodes(" a:1, b:2 ,,c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("ParseNodes = %v", got)
	}
	if _, err := ParseNodes(" , "); err == nil {
		t.Fatal("empty list parsed without error")
	}
}

// TestAggregate: leaked bits sum across nodes, shard entries keep their
// per-node identity, and the single cluster budget is judged against the
// sum — two nodes individually under budget must still trip a cluster
// budget their sum exceeds.
func TestAggregate(t *testing.T) {
	nodes := []server.Stats{
		{Account: leakage.Account{LeakedBits: 4}, Shards: []server.ShardStats{
			{Shard: 0, LeakedBits: 4, RateChanges: []core.RateChange{{Epoch: 0, Rate: 995}, {Epoch: 1, Rate: 45}}},
		}},
		{Account: leakage.Account{LeakedBits: 6}, Shards: []server.ShardStats{
			{Shard: 0, LeakedBits: 2},
			{Shard: 1, LeakedBits: 4},
		}},
	}
	agg := Aggregate(nodes, 2048, 64, 8, nil)
	if agg.LeakedBits != 10 {
		t.Errorf("LeakedBits = %v, want 10", agg.LeakedBits)
	}
	if !agg.LeakageExceeded {
		t.Error("cluster budget 8 < 10 leaked, but LeakageExceeded is false")
	}
	if len(agg.Shards) != 3 {
		t.Fatalf("flattened %d shards, want 3", len(agg.Shards))
	}
	wantNodes := []int{0, 1, 1}
	wantShards := []int{0, 0, 1}
	for i, sh := range agg.Shards {
		if sh.Node != wantNodes[i] || sh.Shard != wantShards[i] {
			t.Errorf("shard entry %d = (node %d, shard %d), want (%d, %d)",
				i, sh.Node, sh.Shard, wantNodes[i], wantShards[i])
		}
	}
	// The per-shard rate-change history survives aggregation verbatim —
	// that is what cluster-level adversary replay consumes.
	if len(agg.Shards[0].RateChanges) != 2 {
		t.Errorf("rate_changes history lost in aggregation: %v", agg.Shards[0].RateChanges)
	}
	if agg.Blocks != 2048 || agg.BlockBytes != 64 || agg.LeakageBudgetBits != 8 {
		t.Errorf("geometry/budget = (%d, %d, %v)", agg.Blocks, agg.BlockBytes, agg.LeakageBudgetBits)
	}
	under := Aggregate(nodes, 2048, 64, 16, nil)
	if under.LeakageExceeded {
		t.Error("budget 16 ≥ 10 leaked, but LeakageExceeded is true")
	}
}

// TestRouterEnforcesTenantBudget trips a sub-budget at the proxy. A router
// started before alice's traffic refuses her once a probe tick sees her
// over budget; a router started after she crossed it refuses her first op,
// from the account NewRouter polled; and a config whose probe loop is off
// cannot carry sub-budgets at all, since nothing would refresh the account.
func TestRouterEnforcesTenantBudget(t *testing.T) {
	nodeCfg := server.Config{
		Shards:        1,
		Blocks:        256,
		BlockBytes:    64,
		ClockHz:       1_000_000,
		ORAMLatency:   5,
		Rates:         []uint64{45, 195, 495, 995}, // |R| = 4 → 2 bits per transition
		InitialRate:   995,
		EpochFirstLen: 20_000, // 20 ms first epoch, growth 2
		EpochGrowth:   2,
	}
	_, addrs := startNodes(t, 2, nodeCfg)
	budgets := map[string]float64{"alice": 3}
	probing := startRouter(t, Config{Nodes: addrs, Epoch: 1, TenantBudgets: budgets, ProbeEvery: 10 * time.Millisecond})

	var err error
	for i, deadline := uint64(0), time.Now().Add(10*time.Second); err == nil && time.Now().Before(deadline); i++ {
		err = probing.Do("alice", []server.Op{{Addr: i % 256}})
	}
	if server.ErrorCode(err) != server.CodeTenantBudget {
		t.Fatalf("alice's ops through a probing router ended with %v, want code %s", err, server.CodeTenantBudget)
	}

	fresh := startRouter(t, Config{Nodes: addrs, Epoch: 1, TenantBudgets: budgets, ProbeEvery: time.Hour})
	if err := fresh.Do("alice", []server.Op{{Addr: 1}}); server.ErrorCode(err) != server.CodeTenantBudget {
		t.Errorf("a fresh router admitted alice's first op: %v", err)
	}
	ops := []server.Op{{Addr: 1}}
	if err := fresh.Do("bob", ops); err != nil || ops[0].Err != nil {
		t.Errorf("unbudgeted bob refused: %v, %v", err, ops[0].Err)
	}

	_, err = NewRouter(Config{Nodes: addrs, Epoch: 1, TenantBudgets: budgets, ProbeEvery: -1})
	if err == nil || !strings.Contains(err.Error(), "TenantBudgets") || !strings.Contains(err.Error(), "ProbeEvery") {
		t.Errorf("sub-budgets without a probe loop: %v, want an error naming TenantBudgets and ProbeEvery", err)
	}
}

// unpacedNodeCfg is a fast store shape for routing-semantics tests that do
// not care about pacing.
func unpacedNodeCfg(blocks uint64) server.Config {
	return server.Config{Shards: 2, Blocks: blocks, BlockBytes: 64, Unpaced: true}
}

// TestRouterRestartDeterminism: data written through one router instance is
// found — at the right addresses — by a fresh router over the same node
// list, i.e. the address→node assignment survives proxy restarts. A third
// router with the node order reversed must instead surface wrong-address
// payloads, pinning that the list order *is* the routing function.
func TestRouterRestartDeterminism(t *testing.T) {
	const blocks = 256 // per node; cluster serves 512
	_, addrs := startNodes(t, 2, unpacedNodeCfg(blocks))

	r1 := startRouter(t, Config{Nodes: addrs})
	if r1.Blocks() != 2*blocks {
		t.Fatalf("cluster blocks = %d, want %d", r1.Blocks(), 2*blocks)
	}
	buf := make([]byte, 64)
	for addr := uint64(0); addr < 2*blocks; addr++ {
		server.FillPayload(buf, addr, 1, addr)
		if err := r1.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	r1.Close()

	r2 := startRouter(t, Config{Nodes: addrs})
	for addr := uint64(0); addr < 2*blocks; addr++ {
		data, err := r2.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.CheckPayload(data, addr); err != nil {
			t.Fatalf("after restart, block %d: %v", addr, err)
		}
	}

	reversed := startRouter(t, Config{Nodes: []string{addrs[1], addrs[0]}})
	mismatches := 0
	for addr := uint64(0); addr < 2*blocks; addr++ {
		data, err := reversed.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if server.CheckPayload(data, addr) != nil {
			mismatches++
		}
	}
	// Every odd/even address now resolves to the other daemon, whose local
	// slot holds the payload of the neighbouring global address.
	if mismatches != 2*blocks {
		t.Errorf("reversed node order: %d/%d reads surfaced wrong-address data; want all — order must define routing", mismatches, 2*blocks)
	}
}

// TestRouterRejectsMismatchedTopology: a Blocks request beyond the nodes'
// capacity, and nodes disagreeing on block size, both fail router
// construction instead of corrupting at runtime.
func TestRouterRejectsMismatchedTopology(t *testing.T) {
	_, addrs := startNodes(t, 2, unpacedNodeCfg(128))
	if _, err := NewRouter(Config{Nodes: addrs, Blocks: 257}); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("oversized Blocks: err = %v", err)
	}

	_, odd := startNode(t, server.Config{Shards: 1, Blocks: 128, BlockBytes: 128, Unpaced: true})
	if _, err := NewRouter(Config{Nodes: []string{addrs[0], odd}}); err == nil || !strings.Contains(err.Error(), "byte blocks") {
		t.Errorf("mismatched BlockBytes: err = %v", err)
	}

	if _, err := NewRouter(Config{Nodes: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("unreachable node: router constructed anyway")
	}
}

// TestRouterOutOfRange: the router bounds-checks before fanning out, naming
// the cluster-wide space.
func TestRouterOutOfRange(t *testing.T) {
	r, _, _ := startCluster(t, 2, unpacedNodeCfg(64), Config{})
	if _, err := r.Read(128); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("read past cluster space: err = %v", err)
	}
	if err := r.Write(1<<40, make([]byte, 64)); err == nil {
		t.Error("write far past cluster space succeeded")
	}
}
