// Package cluster scales the sharded ORAM service past one process: a thin
// routing layer that partitions a flat block address space across N
// independent oramd daemons, each of which is itself a sharded, slot-grid-
// paced server.Store. This is the partitioned-ORAM shape of Stefanov et
// al.'s "Towards Practical Oblivious RAM" applied one level up — the paper's
// pacing makes per-shard throughput a fixed budget, so capacity grows only
// by adding independently-paced sub-ORAMs, and past one machine's cores
// that means adding boxes.
//
// Topology is a versioned NodeMap, not a bare address list: the
// address→node function is pinned to a routing epoch, carried in stats, and
// validated against an expected fingerprint at dial, so a proxy started
// over a drifted or reordered node list fails fast instead of serving every
// address from a node holding someone else's blocks. Routing composes with
// the store's own shard routing: a global address a lands primary on node
// a mod N, replicated to the K-1 successor nodes (NodeMap), at node-local
// stripe addresses, and inside each node on shard local mod S. Both hops
// are deterministic, data-independent functions of the address, and every
// node keeps its own dummy-filled slot grid running regardless of where
// real traffic lands, so the adversary of the paper's model — one who
// observes each node's (memory-bus or network-egress) access schedule —
// sees only the N independent paced grids, exactly as with N unrelated
// daemons.
//
// Replication and elasticity ride the same grids. Writes fan out to K
// replicas and reads fail over to the first healthy one (health tracked by
// a probe loop plus an inline recoverable-vs-fatal error taxonomy,
// server.IsRecoverable), so a killed daemon degrades to its successors with
// zero lost operations. When the map changes (a node joins or leaves), the
// router migrates blocks from the previous topology behind an advancing
// watermark: each copied block is an ordinary Read against the old owners
// and an ordinary Write against the new ones, occupying regular paced slots
// a dummy access would otherwise fill — slot traces are byte-identical with
// and without an active migration — and the migration rate (MigrateEvery)
// is a public parameter of the deployment, accounted like the batching
// parameters k/K.
//
// Threat model caveat: the proxy→node links carry real requests unpadded,
// so an adversary tapping the cluster's internal interconnect additionally
// learns addr mod N per access (which node, not which block) — a surface a
// single daemon does not have, analogous to watching the in-process shard
// queues, and not counted in leaked_bits. Deployments whose interconnect
// is not trusted infrastructure need link padding (or per-access partition
// re-randomization à la Stefanov et al.), which this layer does not do.
//
// Leakage accounts compose additively: each epoch transition on any shard
// of any node reveals one lg|R|-bit rate choice, so the cluster's timing-
// channel total is the sum of the per-node totals, judged against a single
// cluster-wide budget by the Router's aggregated stats.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"tcoram/internal/server"
)

// Config describes a routing proxy over N daemons.
type Config struct {
	// Nodes lists the daemon addresses ("host:port"). Order defines the node
	// index the routing function uses; together with Replicas it forms the
	// NodeMap whose fingerprint pins the routing (see ExpectFingerprint).
	Nodes []string
	// Epoch is the routing epoch this node map is deployed under. Any
	// membership change must come with a higher epoch. Carried in stats as
	// routing_epoch so clients and operators can validate which map served
	// them.
	Epoch uint64
	// Replicas is K: every block is written to its primary node and the K-1
	// successors, and read from the first healthy replica. 0 defaults to 1
	// (no replication). Each node spends 1/K of its capacity per replica
	// stripe, so the cluster serves N·(min node blocks)/K addresses.
	Replicas int
	// ExpectFingerprint, when non-empty, must equal the NodeMap's
	// fingerprint or NewRouter refuses to start — the guard against a
	// reordered or edited -nodes list silently rerouting a data lifetime.
	// Obtain it from a previous run's stats (map_fingerprint) or startup log.
	ExpectFingerprint string
	// ConnsPerNode is the size of each node's pipelined connection pool
	// (default 2). Every connection multiplexes arbitrarily many in-flight
	// requests (server.Client pipelining); the pool spreads encode/decode
	// work across sockets.
	ConnsPerNode int
	// Blocks optionally caps the cluster's served address space. Zero
	// derives the maximum the topology supports: N × (min over nodes of the
	// node's block count) / K.
	Blocks uint64
	// LeakageBudgetBits is the cluster-wide ORAM-timing-channel budget in
	// bits: the summed per-node leakage is judged against this one number in
	// aggregated stats. Zero means account but never flag.
	LeakageBudgetBits float64
	// TenantBudgets assigns per-tenant leakage sub-budgets in bits,
	// enforced cluster-wide: each tenant's account sums its attribution
	// across every node's shards, and a tenant over its sub-budget is
	// refused at the proxy with CodeTenantBudget while the others keep
	// being served. Nil means single-tenant operation.
	TenantBudgets map[string]float64
	// ProbeEvery is the health-probe interval: every node is pinged on this
	// period, failing nodes are ejected from the read path and reinstated
	// when they answer again. 0 defaults to 250ms; negative disables the
	// probe loop (ejection then happens only inline, on op failures).
	ProbeEvery time.Duration
	// RetryAttempts is how many full passes over an address's replica set an
	// operation makes before giving up (default 3). Between passes the
	// router backs off (RetryBackoff), riding out the window where every
	// replica is momentarily unreachable.
	RetryAttempts int
	// RetryBackoff paces the passes. Zero value: 10ms doubling, 1s cap.
	RetryBackoff server.Backoff
	// PrevNodes, when set, is the previous topology's node list: the router
	// starts a live migration that copies every block from the old owners to
	// the new ones behind an advancing watermark. Addresses above the
	// watermark are still served by the old topology, below by the new, so
	// the data plane stays consistent throughout.
	PrevNodes []string
	// PrevEpoch is the routing epoch PrevNodes served under (must be below
	// Epoch).
	PrevEpoch uint64
	// PrevReplicas is the previous topology's replication factor (0 → 1).
	PrevReplicas int
	// MigrateEvery is the public migration rate: one block is copied per
	// tick. It is a parameter of the deployment, not of the data — the
	// copies occupy ordinary paced slots, so the only thing an adversary
	// learns from a migration is this rate and the epoch bump, both public.
	// 0 defaults to 1ms.
	MigrateEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.ConnsPerNode == 0 {
		c.ConnsPerNode = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.PrevReplicas == 0 {
		c.PrevReplicas = 1
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.MigrateEvery == 0 {
		c.MigrateEvery = time.Millisecond
	}
	return c
}

// Map returns the versioned node map the configuration describes.
func (c Config) Map() NodeMap {
	return NodeMap{Epoch: c.Epoch, Nodes: c.Nodes, Replicas: c.Replicas}.withDefaults()
}

// PrevMap returns the previous topology's map, or false when no migration
// is configured.
func (c Config) PrevMap() (NodeMap, bool) {
	if len(c.PrevNodes) == 0 {
		return NodeMap{}, false
	}
	return NodeMap{Epoch: c.PrevEpoch, Nodes: c.PrevNodes, Replicas: c.PrevReplicas}.withDefaults(), true
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Map().Validate(); err != nil {
		return err
	}
	if c.ConnsPerNode < 0 {
		return fmt.Errorf("cluster: ConnsPerNode must not be negative, got %d", c.ConnsPerNode)
	}
	if c.LeakageBudgetBits < 0 {
		return fmt.Errorf("cluster: LeakageBudgetBits must not be negative, got %v", c.LeakageBudgetBits)
	}
	for name, bits := range c.TenantBudgets {
		if name == "" {
			return fmt.Errorf("cluster: TenantBudgets names the empty tenant")
		}
		if bits < 0 {
			return fmt.Errorf("cluster: TenantBudgets[%q] must not be negative, got %v", name, bits)
		}
	}
	// Admission reads an account refreshed on the probe tick; without the
	// probe loop it would go stale after NewRouter's first poll.
	if len(c.TenantBudgets) > 0 && c.ProbeEvery < 0 {
		return fmt.Errorf("cluster: TenantBudgets need the probe loop, but ProbeEvery is %v", c.ProbeEvery)
	}
	if c.RetryAttempts < 0 {
		return fmt.Errorf("cluster: RetryAttempts must not be negative, got %d", c.RetryAttempts)
	}
	if c.MigrateEvery < 0 {
		return fmt.Errorf("cluster: MigrateEvery must not be negative, got %v", c.MigrateEvery)
	}
	if prev, ok := c.PrevMap(); ok {
		if err := prev.Validate(); err != nil {
			return fmt.Errorf("cluster: previous topology: %w", err)
		}
		if prev.Epoch >= c.Epoch {
			return fmt.Errorf("cluster: previous epoch %d must be below the new epoch %d", prev.Epoch, c.Epoch)
		}
	}
	return nil
}

// ParseNodes parses the comma-separated node list the oramproxy -nodes flag
// accepts into Config.Nodes form.
func ParseNodes(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty node list")
	}
	return out, nil
}

// interface conformance: the Router serves behind server.Serve unchanged.
var _ server.Service = (*Router)(nil)
