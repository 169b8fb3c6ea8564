//go:build !race

// The race detector allocates on every goroutine start, and the daemon
// starts one per request, so this budget holds only without it.

package server

import (
	"net"
	"testing"
)

// TestWireAllocBudget pins the heap allocations of one Client ↔ HandleConn
// round trip over loopback, both sides counted (AllocsPerRun counts every
// goroutine's allocations), against two services: a stub that answers from
// one shared block, so the count is the codec and connection handling
// alone, and a one-shard unpaced Store, so it is the whole daemon.
//
//	call          budget  what allocates
//	Read               1  the block's copy out of the frame buffer (client)
//	Write              0
//	ReadBatch(8)       2  one arena for the 8 blocks, and ReadBatchVia's
//	                      result slice (client)
//
// The daemon side allocates nothing. Each connection recycles its call
// records, and with them the goroutine closure, the op slice and a buffer
// that takes a write's payload out of the frame buffer or the blocks of a
// read, which the Store fills in place. Frames are encoded into and read
// from buffers each connection reuses, the client's per-request record and
// reply channel are pooled, and the op slices Read, Write and ReadBatchVia
// hand Do come from free lists, so none of them count either. Read's and
// ReadBatch's results are the caller's to keep, so they are fresh.
func TestWireAllocBudget(t *testing.T) {
	st, err := New(Config{Shards: 1, Blocks: 64, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, svc := range []struct {
		name string
		svc  Service
	}{
		{"stub", fuzzService{instantKV{data: make([]byte, 64)}}},
		{"store", st},
	} {
		t.Run(svc.name, func(t *testing.T) { wireAllocBudget(t, svc.svc) })
	}
}

func wireAllocBudget(t *testing.T, svc Service) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, svc)
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
		{"Read", 1, func() error { _, err := cl.Read(17); return err }},
		{"Write", 0, func() error { return cl.Write(17, block) }},
		{"ReadBatch(8)", 2, func() error { _, err := cl.ReadBatch("", batch); return err }},
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
