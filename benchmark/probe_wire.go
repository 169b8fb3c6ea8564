package main

import (
	"net"
	"runtime"
	"time"

	"tcoram/internal/server"
)

// stubService answers every call at once, so a round trip through it is
// codec and connection handling and nothing else.
type stubService struct {
	blocks uint64
	block  []byte
}

func (s stubService) Read(uint64) ([]byte, error)               { return s.block, nil }
func (s stubService) Write(uint64, []byte) error                { return nil }
func (s stubService) TenantRead(string, uint64) ([]byte, error) { return s.block, nil }
func (s stubService) TenantWrite(string, uint64, []byte) error  { return nil }
func (s stubService) ReadBatch(_ string, addrs []uint64) ([]server.BatchResult, error) {
	res := make([]server.BatchResult, len(addrs))
	for i := range res {
		res[i].Data = s.block
	}
	return res, nil
}
func (s stubService) ServiceStats() (server.Stats, error) {
	return server.Stats{Blocks: s.blocks, BlockBytes: len(s.block)}, nil
}

// serveStub starts a daemon over a stub on loopback and returns its address
// and a function that stops it.
func serveStub(blocks uint64) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go server.Serve(l, stubService{blocks: blocks, block: make([]byte, 64)}) // returns when l closes
	return l.Addr().String(), func() { l.Close() }, nil
}

func probeWire(out map[string]float64, scale float64) error {
	addr, stop, err := serveStub(1 << 14)
	if err != nil {
		return err
	}
	defer stop()
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	iters := int(10000 * scale)
	block := make([]byte, 64)
	addrs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, v := range []struct {
		name string
		call func() error
	}{
		{"wire.rtt_read_us", func() error { _, err := c.Read(1); return err }},
		{"wire.rtt_write_us", func() error { return c.Write(1, block) }},
		{"wire.rtt_batch8_us", func() error { _, err := c.ReadBatch("", addrs); return err }},
		{"wire.rtt_batch4_us", func() error { _, err := c.ReadBatch("", addrs[:4]); return err }},
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := v.call(); err != nil {
				return err
			}
		}
		out[v.name] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(iters)
		runtime.ReadMemStats(&ms1)
		if v.name == "wire.rtt_read_us" {
			out["wire.allocs_per_rtt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
		}
	}
	return nil
}
