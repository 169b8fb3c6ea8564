package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"tcoram/internal/server"
)

// node is one daemon's client-side state: its connection pool and its
// health record. The pool entries are self-healing fail-fast clients
// (server.RetryClient with a single attempt): an operation on a dead
// connection fails immediately — letting the router fail over to a replica
// instead of blocking — and the next operation redials, so a node that
// comes back is picked up without any pool surgery.
type node struct {
	index   int
	addr    string
	clients []*server.RetryClient
	next    atomic.Uint64

	// healthy gates the read path: reads prefer healthy replicas and only
	// fall back to ejected nodes when no healthy replica holds the address.
	// Transitions are made inline on op failures (eject) and by the probe
	// loop (eject and reinstate).
	healthy     atomic.Bool
	ejections   atomic.Uint64
	failovers   atomic.Uint64
	writeMisses atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

// dialNode opens the node's connection pool, failing fast if the daemon is
// unreachable: a proxy started over a dead topology should say so at
// startup, not at the first request.
func dialNode(index int, addr string, conns int) (*node, error) {
	n := &node{index: index, addr: addr}
	n.healthy.Store(true)
	for c := 0; c < conns; c++ {
		cl, err := server.RetryDial(addr, server.RetryConfig{Attempts: 1})
		if err != nil {
			n.close()
			return nil, err
		}
		n.clients = append(n.clients, cl)
	}
	return n, nil
}

// pick returns the next pool connection round-robin. server.Client
// multiplexes concurrent callers onto one socket by request id, so
// correctness needs only one connection; the pool spreads frame
// encode/decode and syscall work across several.
func (n *node) pick() *server.RetryClient {
	return n.clients[n.next.Add(1)%uint64(len(n.clients))]
}

// noteFailure records a transport-level failure and ejects the node: one
// ejection per healthy→unhealthy transition, however many concurrent ops
// observed the same death.
func (n *node) noteFailure(err error) {
	n.mu.Lock()
	n.lastErr = err.Error()
	n.mu.Unlock()
	if n.healthy.CompareAndSwap(true, false) {
		n.ejections.Add(1)
	}
}

// noteSuccess reinstates the node. Called by the probe loop on a ping
// answer and inline when an op against an ejected node succeeds.
func (n *node) noteSuccess() {
	n.healthy.Store(true)
}

// status snapshots the node's health record for stats.
func (n *node) status() server.NodeStatus {
	n.mu.Lock()
	lastErr := n.lastErr
	n.mu.Unlock()
	return server.NodeStatus{
		Node:               n.index,
		Addr:               n.addr,
		Healthy:            n.healthy.Load(),
		Ejections:          n.ejections.Load(),
		Failovers:          n.failovers.Load(),
		ReplicaWriteMisses: n.writeMisses.Load(),
		LastError:          lastErr,
	}
}

// close tears down the pool. Closed clients stay closed (no redial
// resurrection), so a retired node cannot be written to by a straggler.
func (n *node) close() error {
	var first error
	for _, c := range n.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// prober is the router's health loop: every ProbeEvery it pings each
// distinct node, ejecting the ones that fail and reinstating the ones that
// answer. Inline op failures eject faster than the probe period; the probe
// loop's job is mostly the other direction — noticing recovery, which no
// read will, since reads skip ejected nodes.
func (r *Router) prober(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			for _, n := range r.allNodes() {
				if err := n.pick().Ping(); err != nil {
					if server.IsRecoverable(err) {
						n.noteFailure(err)
					}
					continue
				}
				n.noteSuccess()
			}
			if len(r.cfg.TenantBudgets) > 0 {
				// Budget enforcement rides the probe cadence: the tick
				// refreshes the admission account so a tenant that crossed
				// its sub-budget starts being refused within one period.
				r.ServiceStats()
			}
		}
	}
}
