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
// ReadBatch of 8 through a K = 2 router over two stub daemons on loopback,
// called in process and through a proxy daemon serving the router. The
// budgets are the measured counts, so a refactor cannot add an allocation
// to the cluster serving path unnoticed. In process they fell from 36, 18
// and 75 when the wire moved from JSON lines to binary frames, from 8, 4
// and 15 when the daemons began recycling their call records, and from 2,
// 2 and 9 when the router took its working sets from a free list and
// stopped starting a goroutine per node sub-batch; what is left, per op,
// is what the shims must hand back fresh:
//
//	in process    Write         0
//	              Read          1  the node client's block copy, which
//	                               Read returns
//	              ReadBatch(8)  3  ReadBatchVia's result slice; per node
//	                               sub-batch, the node client's block arena
//	via proxy     Write         0
//	              Read          1  the outer client's block copy
//	              ReadBatch(8)  2  the outer client's block arena and
//	                               ReadBatchVia's result slice
//
// The daemons allocate nothing, the proxy included: its call records lend
// their read buffers to the router, whose node clients fill them in place.
// The router's batch records (members, sub-ops, the calls in flight and
// walk's one-op submission) and the clients' op slices come from free
// lists. The probe loop is off: its pings would land in whichever run they
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
	proxy, err := server.Dial(startProxy(t, r))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	block := make([]byte, 64)
	batch := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	blocks := r.Blocks()
	var addr uint64
	for _, via := range []struct {
		name string
		svc  interface {
			Write(addr uint64, data []byte) error
			Read(addr uint64) ([]byte, error)
			ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error)
		}
		budget [3]float64 // Write, Read, ReadBatch(8)
	}{
		{"in process", r, [3]float64{0, 1, 3}},
		{"via proxy", proxy, [3]float64{0, 1, 2}},
	} {
		// Warm the pools, the pending maps and the codec's caches.
		for i := uint64(0); i < 200; i++ {
			if err := via.svc.Write(i, block); err != nil {
				t.Fatal(err)
			}
			if _, err := via.svc.Read(i); err != nil {
				t.Fatal(err)
			}
			if _, err := via.svc.ReadBatch("", batch); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range []struct {
			name string
			op   func() error
		}{
			{"Write", func() error { addr++; return via.svc.Write(addr%blocks, block) }},
			{"Read", func() error { addr++; _, err := via.svc.Read(addr % blocks); return err }},
			{"ReadBatch(8)", func() error { _, err := via.svc.ReadBatch("", batch); return err }},
		} {
			var err error
			got := testing.AllocsPerRun(400, func() {
				if e := c.op(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%s %s: %v", via.name, c.name, err)
			}
			t.Logf("%s %s: %v allocations", via.name, c.name, got)
			if got > via.budget[i] {
				t.Errorf("routed %s %s allocates %v, budget %v", via.name, c.name, got, via.budget[i])
			}
		}
	}
}
