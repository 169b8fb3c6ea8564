package main

import (
	"time"

	"tcoram/internal/cluster"
)

// probeCluster times the router alone: two stub daemons answer at once, so
// what is left of a call after a bare round trip is the split by node, the
// fan-out, the ordered merge and, for a write, the replication.
func probeCluster(out map[string]float64, scale float64) error {
	var nodes []string
	for n := 0; n < 2; n++ {
		addr, stop, err := serveStub(1 << 14)
		if err != nil {
			return err
		}
		defer stop()
		nodes = append(nodes, addr)
	}
	r, err := cluster.NewRouter(cluster.Config{Nodes: nodes, Epoch: 1, Replicas: 2})
	if err != nil {
		return err
	}
	defer r.Close()

	iters := int(5000 * scale)
	addrs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	block := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := r.ReadBatch("", addrs); err != nil {
			return err
		}
	}
	out["cluster.route_stub_us"] = float64(time.Since(t0).Nanoseconds())/1e3/float64(iters) - out["wire.rtt_batch4_us"]
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if err := r.Write(uint64(i)%(1<<14), block); err != nil {
			return err
		}
	}
	out["cluster.route_stub_write_us"] = float64(time.Since(t0).Nanoseconds())/1e3/float64(iters) - out["wire.rtt_write_us"]
	return nil
}
