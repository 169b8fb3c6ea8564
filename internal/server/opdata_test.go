package server

import (
	"bytes"
	"net"
	"sync"
	"testing"
)

// unpacedStore is a one-shard flat store that serves as fast as it is
// called.
func unpacedStore(t *testing.T) *Store {
	t.Helper()
	st, err := New(Config{Shards: 1, Blocks: 64, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestReadFillsCallerBuffer: a read op whose Data has room for a block gets
// the block in that same backing array; one without room gets a fresh
// buffer and its own array is left alone.
func TestReadFillsCallerBuffer(t *testing.T) {
	st := unpacedStore(t)
	want := bytes.Repeat([]byte{0xab}, 64)
	if err := st.Write(9, want); err != nil {
		t.Fatal(err)
	}

	roomy := make([]byte, 3, 100)
	ops := []Op{{Addr: 9, Data: roomy}}
	if err := st.Do("", ops); err != nil || ops[0].Err != nil {
		t.Fatal(err, ops[0].Err)
	}
	if got := ops[0].Data; len(got) != 64 || &got[0] != &roomy[:1][0] {
		t.Errorf("read into a %d-cap buffer returned %d bytes in another array", cap(roomy), len(got))
	}
	if !bytes.Equal(ops[0].Data, want) {
		t.Errorf("read into caller buffer = %x, want %x", ops[0].Data, want)
	}

	short := make([]byte, 63)
	ops = []Op{{Addr: 9, Data: short}}
	if err := st.Do("", ops); err != nil || ops[0].Err != nil {
		t.Fatal(err, ops[0].Err)
	}
	if got := ops[0].Data; &got[0] == &short[0] || !bytes.Equal(got, want) {
		t.Errorf("read with a 63-byte buffer: got %x in the caller's array %v", got, &got[0] == &short[0])
	}
	if !bytes.Equal(short, make([]byte, 63)) {
		t.Error("a buffer without room for the block was written")
	}
}

// TestReadsReturnDistinctArrays: Read hands back a fresh slice every call,
// so no recycled buffer can leak one caller's result into another's.
func TestReadsReturnDistinctArrays(t *testing.T) {
	st := unpacedStore(t)
	if err := st.Write(4, []byte("block four")); err != nil {
		t.Fatal(err)
	}
	a, err := st.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &b[0] {
		t.Fatal("two Reads returned the same backing array")
	}
	a[0] = 'X'
	if c, err := st.Read(4); err != nil || !bytes.HasPrefix(c, []byte("block four")) || b[0] != 'b' {
		t.Errorf("a caller's edit reached the block or another result: %q, %q (%v)", b, c, err)
	}
}

// TestShortWriteZeroPads: a write shorter than the block replaces all of
// it, so a short write after a long one reads back zero-padded — the
// padding the slot now does in place of a padded copy.
func TestShortWriteZeroPads(t *testing.T) {
	st := unpacedStore(t)
	if err := st.Write(7, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(7, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("abc"), make([]byte, 61)...)
	if !bytes.Equal(got, want) {
		t.Errorf("short write after long write reads %x, want %x", got, want)
	}
}

// TestCoalescedWriteThenReadInOneSlot drives one shard's slot by hand with
// a write and then a read of the same block queued: they coalesce into one
// group, and the read — applied through the shard's fixed callback —
// observes the write, zero padding included.
func TestCoalescedWriteThenReadInOneSlot(t *testing.T) {
	for _, backend := range []string{BackendFlat, BackendBatched} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{Shards: 1, Blocks: 64, BlockBytes: 64, Unpaced: true, Backend: backend}.withDefaults()
			o, p, err := newStack(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := newShard(0, o, p, cfg, make(chan struct{}))
			if err != nil {
				t.Fatal(err)
			}
			enqueue := func(req *request) *request {
				req.resp = make(chan error, 1)
				sh.depth.Add(1)
				sh.queue <- req
				return req
			}
			long := enqueue(&request{local: 5, write: true, data: bytes.Repeat([]byte{0xee}, 64)})
			if err := sh.slot(); err != nil {
				t.Fatal(err)
			}
			short := enqueue(&request{local: 5, write: true, data: []byte("new")})
			other := enqueue(&request{local: 6, data: make([]byte, 64)})
			read := enqueue(&request{local: 5, data: bytes.Repeat([]byte{0x11}, 64)})
			if err := sh.slot(); err != nil {
				t.Fatal(err)
			}
			for _, req := range []*request{long, short, read} {
				if err := <-req.resp; err != nil {
					t.Fatal(err)
				}
			}
			if got := sh.coalesced.Load(); got != 1 {
				t.Errorf("coalesced = %d, want 1 (the read joined the write's group)", got)
			}
			want := append([]byte("new"), make([]byte, 61)...)
			if !bytes.Equal(read.data, want) {
				t.Errorf("coalesced read = %x, want %x", read.data, want)
			}
			if backend == BackendBatched {
				// The other block rides the same slot as a second group.
				if err := <-other.resp; err != nil || sh.reals.Load() != 2 {
					t.Errorf("batched slot: other block err %v after %d real slots, want nil after 2", err, sh.reals.Load())
				}
			}
		})
	}
}

// TestDaemonRecycledCallsKeepResultsApart pipelines reads, batch reads and
// writes from several goroutines over one connection to a daemon serving a
// Store. The daemon recycles its call records, and the Store fills each
// record's read buffers in place, so a record reused too early, or two
// calls sharing a buffer, would hand one caller another's block.
func TestDaemonRecycledCallsKeepResultsApart(t *testing.T) {
	st, err := New(Config{Shards: 2, Blocks: 64, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	block := func(addr uint64, gen byte) []byte {
		return bytes.Repeat([]byte{byte(addr), gen}, 32)
	}
	for a := uint64(0); a < 64; a++ {
		if err := st.Write(a, block(a, 0)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := net.Pipe()
	go HandleConn(a, st)
	cl := NewClient(b)
	defer cl.Close()

	const workers, rounds = 8, 100
	var wg sync.WaitGroup
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w owns the blocks ≡ w mod workers and rewrites them;
			// it reads every block, and knows the contents of its own.
			var gen byte
			for r := uint64(0); r < rounds; r++ {
				own := w + workers*(r%(64/workers))
				gen++
				if err := cl.Write(own, block(own, gen)); err != nil {
					t.Error(err)
					return
				}
				got, err := cl.Read(own)
				if err != nil || !bytes.Equal(got, block(own, gen)) {
					t.Errorf("worker %d read block %d = %x (%v), want generation %d", w, own, got, err, gen)
					return
				}
				addrs := []uint64{(own + 1) % 64, own, (own + 9) % 64}
				res, err := cl.ReadBatch("", addrs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, br := range res {
					if br.Err != nil || len(br.Data) != 64 || br.Data[0] != byte(addrs[i]) {
						t.Errorf("worker %d batch member %d (block %d) = %x (%v)", w, i, addrs[i], br.Data, br.Err)
						return
					}
				}
				if !bytes.Equal(res[1].Data, block(own, gen)) {
					t.Errorf("worker %d batch read its block %d as %x, want generation %d", w, own, res[1].Data, gen)
					return
				}
			}
		}()
	}
	wg.Wait()
}
