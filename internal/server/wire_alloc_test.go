//go:build !race

// The race detector allocates on every goroutine start, and the daemon
// starts one per request, so this budget holds only without it.

package server

import (
	"net"
	"testing"
)

// TestWireAllocBudget pins the heap allocations of one Client ↔ HandleConn
// round trip over loopback against a stub that answers from one shared
// block, so the count is the codec and connection handling alone, on both
// sides (AllocsPerRun counts every goroutine's allocations):
//
//	call          budget  what allocates
//	Read               4  the request's call record and its goroutine's
//	                      closure (daemon); the one-op slice Read hands
//	                      Do, which the pending record holds, and the
//	                      block's copy out of the frame buffer (client)
//	Write              4  call and closure, and the payload's copy out of
//	                      the frame buffer, which the Service may keep
//	                      (daemon); Write's one-op slice (client)
//	ReadBatch(8)       6  call, closure and the 8-op slice (daemon); one
//	                      arena for the 8 blocks, and ReadBatchVia's op
//	                      and result slices (client)
//
// Frames are encoded into and read from buffers each connection reuses,
// and the client's per-request record and reply channel are pooled, so
// none of them count.
func TestWireAllocBudget(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, fuzzService{instantKV{data: make([]byte, 64)}})
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	block := make([]byte, 64)
	batch := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"Read", 4, func() error { _, err := cl.Read(17); return err }},
		{"Write", 4, func() error { return cl.Write(17, block) }},
		{"ReadBatch(8)", 6, func() error { _, err := cl.ReadBatch("", batch); return err }},
	} {
		// Warm the pools, the pending map and the frame buffers.
		for i := 0; i < 200; i++ {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		got := testing.AllocsPerRun(400, func() {
			if e := c.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.budget {
			t.Errorf("%s round trip allocates %v, budget %v", c.name, got, c.budget)
		}
	}
}
