package cluster

import (
	"net"
	"testing"

	"tcoram/internal/server"
)

// stubNode answers every op at once from one shared block, so a routed call
// against it is wire codec, connection handling and routing, and nothing
// else.
type stubNode struct {
	blocks uint64
	block  []byte
}

func (s stubNode) Do(_ string, ops []server.Op) error {
	for i := range ops {
		if !ops[i].Write {
			ops[i].Data = s.block
		}
		ops[i].Err = nil
	}
	return nil
}

func (s stubNode) Read(uint64) ([]byte, error)               { return s.block, nil }
func (s stubNode) Write(uint64, []byte) error                { return nil }
func (s stubNode) TenantRead(string, uint64) ([]byte, error) { return s.block, nil }
func (s stubNode) TenantWrite(string, uint64, []byte) error  { return nil }
func (s stubNode) ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error) {
	return server.ReadBatchVia(s, tenant, addrs)
}
func (s stubNode) ServiceStats() (server.Stats, error) {
	return server.Stats{Blocks: s.blocks, BlockBytes: len(s.block)}, nil
}

// TestRouterAllocBudget pins the heap allocations of the routed path — the
// router, the pooled node clients and the stub daemons' connection
// handling, all in this process — for a Write (two replicas), a Read and a
// ReadBatch of 8 through a K = 2 router over two stub daemons on loopback.
// The budgets are the measured counts, so a refactor cannot add an
// allocation to the cluster serving path unnoticed. They fell from 36, 18
// and 75 when the wire moved from JSON lines to binary frames; what is
// left, per op:
//
//	Write         8  per replica: the walk's one-op slice, and the stub
//	                 daemon's call record, goroutine closure and payload
//	                 copy
//	Read          4  the walk's one-op slice; the client's block copy; the
//	                 daemon's call record and goroutine closure
//	ReadBatch(8) 15  ReadBatchVia's op and result slices; Router.Do's
//	                 member and sub-op slices, WaitGroup and the fan-out
//	                 goroutine's two closures; per node sub-batch, the
//	                 client's block arena and the daemon's call record,
//	                 goroutine closure and op slice
//
// The probe loop is off: its pings would land in whichever run they
// overlap.
func TestRouterAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on every goroutine start")
	}
	var nodes []string
	for n := 0; n < 2; n++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go server.Serve(l, stubNode{blocks: 1 << 14, block: make([]byte, 64)})
		nodes = append(nodes, l.Addr().String())
	}
	r := startRouter(t, Config{Nodes: nodes, Epoch: 1, Replicas: 2, ProbeEvery: -1})

	block := make([]byte, 64)
	batch := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	// Warm the pools, the pending maps and the codec's caches.
	for i := uint64(0); i < 200; i++ {
		if err := r.Write(i, block); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(i); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadBatch("", batch); err != nil {
			t.Fatal(err)
		}
	}
	var addr uint64
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"Write", 8, func() error { addr++; return r.Write(addr%r.Blocks(), block) }},
		{"Read", 4, func() error { addr++; _, err := r.Read(addr % r.Blocks()); return err }},
		{"ReadBatch(8)", 15, func() error { _, err := r.ReadBatch("", batch); return err }},
	} {
		var err error
		got := testing.AllocsPerRun(400, func() {
			if e := c.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %v allocations", c.name, got)
		if got > c.budget {
			t.Errorf("routed %s allocates %v, budget %v", c.name, got, c.budget)
		}
	}
}
