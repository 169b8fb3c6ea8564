// Command oramproxy serves a multi-node ORAM cluster behind one address: it
// speaks the same binary frame protocol as oramd (clients and loadgen point at
// it unchanged) and routes every request to the K replica daemons owning the
// address under a versioned node map (routing epoch), with per-node
// pipelined connection pools, health-probed failover, optional live
// rebalancing from a previous topology, and cluster-wide stat/leakage
// aggregation (internal/cluster).
//
// Topology example — three daemons, replication 2, one load generator:
//
//	oramd -addr :7401 -shards 4 -blocks 32768 &
//	oramd -addr :7402 -shards 4 -blocks 32768 &
//	oramd -addr :7403 -shards 4 -blocks 32768 &
//	oramproxy -addr :7400 -nodes 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 \
//	          -replicas 2 -epoch 1 -leak-budget 128
//	loadgen -addr 127.0.0.1:7400 -blocks 49152
//
// The node list's order defines the routing function; the proxy prints the
// map's fingerprint at startup — pass it back via -map-check on later
// starts to fail fast on a drifted or reordered list. To change membership,
// restart the proxy with the new list under a higher -epoch and the old
// list in -prev-nodes: blocks migrate to the new topology at the -migrate-
// every rate while the proxy keeps serving.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcoram/internal/cluster"
	"tcoram/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7400", "listen address")
		nodes        = flag.String("nodes", "", "comma-separated oramd addresses; order defines routing and must be stable across restarts")
		epoch        = flag.Uint64("epoch", 1, "routing epoch of this node map; bump on every membership change")
		replicas     = flag.Int("replicas", 2, "replication factor K: each block written to K successor nodes, read from the first healthy one")
		mapCheck     = flag.String("map-check", "", "expected node-map fingerprint; refuse to start if the -nodes/-replicas map differs (guards against list drift)")
		conns        = flag.Int("conns", 2, "pipelined connections per node")
		blocks       = flag.Uint64("blocks", 0, "served address space in blocks (0 = all the topology holds: nodes × smallest node / replicas)")
		probeEvery   = flag.Duration("probe-every", 250*time.Millisecond, "health-probe period: failing nodes are ejected from reads and reinstated when they answer again")
		retries      = flag.Int("retries", 3, "full passes over an address's replica set before an operation fails")
		prevNodes    = flag.String("prev-nodes", "", "previous topology's node list: migrate every block from it to -nodes while serving (requires -prev-epoch < -epoch)")
		prevEpoch    = flag.Uint64("prev-epoch", 0, "routing epoch the -prev-nodes topology served under")
		prevReplicas = flag.Int("prev-replicas", 0, "previous topology's replication factor (0 = 1)")
		migrateEvery = flag.Duration("migrate-every", time.Millisecond, "public migration rate: one block copied from the previous topology per tick")
	)
	budget := server.NewBudgetFlags(flag.CommandLine, "", "cluster-wide, across all nodes' shards")
	flag.Parse()

	nodeList, err := cluster.ParseNodes(*nodes)
	if err != nil {
		fatal(fmt.Errorf("%w (set -nodes)", err))
	}
	leakBudget, tenantBudgets, err := budget.Parse()
	if err != nil {
		fatal(err)
	}
	cfg := cluster.Config{
		Nodes:             nodeList,
		Epoch:             *epoch,
		Replicas:          *replicas,
		ExpectFingerprint: *mapCheck,
		ConnsPerNode:      *conns,
		Blocks:            *blocks,
		LeakageBudgetBits: leakBudget,
		TenantBudgets:     tenantBudgets,
		ProbeEvery:        *probeEvery,
		RetryAttempts:     *retries,
		MigrateEvery:      *migrateEvery,
	}
	if *prevNodes != "" {
		if cfg.PrevNodes, err = cluster.ParseNodes(*prevNodes); err != nil {
			fatal(fmt.Errorf("-prev-nodes: %w", err))
		}
		cfg.PrevEpoch = *prevEpoch
		cfg.PrevReplicas = *prevReplicas
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		fatal(err)
	}
	defer r.Close()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("oramproxy: routing %d blocks × %d B across %d nodes on %s (epoch %d, %d replicas, map %s, %d conns/node)\n",
		r.Blocks(), r.BlockBytes(), r.Nodes(), l.Addr(), r.Epoch(), *replicas, r.Fingerprint(), *conns)
	if len(tenantBudgets) > 0 {
		fmt.Printf("oramproxy: enforcing %d per-tenant leakage sub-budgets cluster-wide\n", len(tenantBudgets))
	}
	if *prevNodes != "" {
		fmt.Printf("oramproxy: migrating from epoch %d (%d nodes) at one block per %v\n",
			*prevEpoch, len(cfg.PrevNodes), *migrateEvery)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- server.Serve(l, r) }()
	select {
	case s := <-sig:
		fmt.Printf("oramproxy: %v — shutting down\n", s)
	case err := <-done:
		if !server.IsClosedErr(err) {
			fmt.Fprintf(os.Stderr, "oramproxy: accept: %v\n", err)
		}
	}
	l.Close()

	// The nodes keep serving (their slot grids are theirs); report what the
	// cluster's timing channel gave away while we were fronting it.
	if stats, err := r.ServiceStats(); err != nil {
		fmt.Fprintf(os.Stderr, "oramproxy: could not fetch final cluster stats: %v\n", err)
	} else {
		real, dummy, coalesced := stats.Totals()
		fmt.Printf("oramproxy: cluster served %d real + %d dummy accesses (dummy fraction %.3f), %d coalesced\n",
			real, dummy, stats.DummyFraction(), coalesced)
		if stats.MigrationActive {
			fmt.Printf("oramproxy: migration still active at watermark %d\n", stats.MigrationWatermark)
		}
		for _, n := range stats.Nodes {
			if n.Ejections > 0 || !n.Healthy {
				fmt.Printf("oramproxy: node %d (%s) healthy=%v ejections=%d failovers=%d write-misses=%d last-error=%q\n",
					n.Node, n.Addr, n.Healthy, n.Ejections, n.Failovers, n.ReplicaWriteMisses, n.LastError)
			}
		}
		fmt.Printf("oramproxy: %s\n", stats.LeakageSummary())
		if warning, ok := stats.SlipWarning(); ok {
			fmt.Printf("oramproxy: %s\n", warning)
		}
		for _, ts := range stats.Tenants {
			fmt.Printf("oramproxy: tenant %q leaked %.1f bits over %d transitions (budget %.1f, exceeded %v)\n",
				ts.Tenant, ts.LeakedBits, ts.Transitions, ts.BudgetBits, ts.Exceeded)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "oramproxy: %v\n", err)
	os.Exit(1)
}
