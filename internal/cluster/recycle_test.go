package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tcoram/internal/server"
)

// TestRecycledBatchesKeepSubmissionsApart drives concurrent ReadBatch(8)s
// and Writes through a K = 2 router over two one-shard stores, half the
// goroutines calling the router in process and half through a proxy
// daemon serving it. Each goroutine owns one class of addresses (addr mod
// the goroutine count), so every read has one right answer: the payload its
// goroutine last had acked at that address. A batch record two submissions
// share, or a sub-op, call or buffer one submission leaves behind for the
// next, hands a member another submission's block. Once the goroutines are
// done, every record on the router's free list must refer to nothing.
func TestRecycledBatchesKeepSubmissionsApart(t *testing.T) {
	const goroutines, rounds, blockBytes = 4, 150, 64
	_, addrs := startNodes(t, 2, server.Config{Shards: 1, Blocks: 256, BlockBytes: blockBytes, Unpaced: true})
	r := startRouter(t, Config{Nodes: addrs, Epoch: 1, Replicas: 2, ProbeEvery: -1})
	proxyAddr := startProxy(t, r)
	blocks := r.Blocks()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		var svc interface {
			Write(addr uint64, data []byte) error
			ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error)
		} = r
		if g%2 == 1 {
			cl, err := server.Dial(proxyAddr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			svc = cl
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- func() error {
				rng := rand.New(rand.NewSource(int64(g)))
				seq := map[uint64]uint64{} // the last acked write per address
				pick := func() uint64 {
					return uint64(rng.Intn(int(blocks)/goroutines))*goroutines + uint64(g)
				}
				payload := func(addr uint64) []byte {
					buf := make([]byte, blockBytes)
					if s, ok := seq[addr]; ok {
						server.FillPayload(buf, addr, uint32(g), s)
					}
					return buf
				}
				batch := make([]uint64, 8)
				for i := uint64(0); i < rounds; i++ {
					a := pick()
					buf := make([]byte, blockBytes)
					server.FillPayload(buf, a, uint32(g), i)
					if err := svc.Write(a, buf); err != nil {
						return fmt.Errorf("goroutine %d: write %d: %v", g, a, err)
					}
					seq[a] = i
					for j := range batch {
						batch[j] = pick()
					}
					results, err := svc.ReadBatch("", batch)
					if err != nil {
						return fmt.Errorf("goroutine %d: batch: %v", g, err)
					}
					for j, res := range results {
						if res.Err != nil {
							return fmt.Errorf("goroutine %d: member %d (addr %d): %v", g, j, batch[j], res.Err)
						}
						if !bytes.Equal(res.Data, payload(batch[j])) {
							return fmt.Errorf("goroutine %d: member %d (addr %d) read %x, want its class's last acked payload", g, j, batch[j], res.Data[:min(24, len(res.Data))])
						}
					}
				}
				return nil
			}()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	for n := len(r.free); n > 0; n-- {
		b := <-r.free
		for _, m := range b.ms[:cap(b.ms)] {
			if m != (member{}) {
				t.Fatalf("a free batch record still holds member %+v", m)
			}
		}
		for _, op := range b.sub[:cap(b.sub)] {
			if op.Data != nil || op.Err != nil || op.Addr != 0 {
				t.Fatalf("a free batch record still holds sub-op %+v", op)
			}
		}
		for _, p := range b.parts[:cap(b.parts)] {
			if p != (part{}) {
				t.Fatalf("a free batch record still holds a call in flight on node %v", p.n)
			}
		}
		if b.one[0].Data != nil || b.one[0].Addr != 0 {
			t.Fatalf("a free batch record still holds walk's op %+v", b.one[0])
		}
	}
}
