package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestBatchReadWireRoundTrip drives the batch_read verb end to end over
// TCP against a batched backend: one request line carries k addresses, one
// response line carries per-address results in request order, and a
// single-address batch is just the degenerate case of the same verb.
func TestBatchReadWireRoundTrip(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Backend = BackendBatched
	cfg.BatchK = 4
	cfg.EvictEvery = 4
	st, addr := startDaemon(t, cfg)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if got, want := st.Config().MaxBatch(), 4; got != want {
		t.Fatalf("MaxBatch = %d, want the batched backend's k = %d", got, want)
	}

	addrs := []uint64{11, 3, 500, 42}
	for _, a := range addrs {
		buf := make([]byte, 64)
		FillPayload(buf, a, 7, a)
		if err := cl.Do("alice", []Op{{Addr: a, Write: true, Data: buf}}); err != nil {
			t.Fatalf("tenant write %d: %v", a, err)
		}
	}

	results, err := cl.ReadBatch("alice", addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(addrs) {
		t.Fatalf("batch returned %d results for %d addresses", len(results), len(addrs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d (addr %d): %v", i, addrs[i], r.Err)
		}
		want := make([]byte, 64)
		FillPayload(want, addrs[i], 7, addrs[i])
		if !bytes.Equal(r.Data, want) {
			t.Errorf("member %d (addr %d): got %x, want %x", i, addrs[i], r.Data[:16], want[:16])
		}
	}

	// Degenerate single-member batch: same verb, one result.
	one, err := cl.ReadBatch("", []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Err != nil {
		t.Fatalf("single-member batch: %+v", one)
	}
	if err := CheckPayload(one[0].Data, 3); err != nil {
		t.Fatal(err)
	}

	// Empty batches are rejected client-side before touching the wire.
	if _, err := cl.ReadBatch("", nil); ErrorCode(err) != CodeBadRequest {
		t.Errorf("empty batch error = %v (code %q), want %s", err, ErrorCode(err), CodeBadRequest)
	}
}

// TestBatchReadOversizedPerRequestError pins the error-path contract: a
// batch over the store's limit fails that request with a coded per-request
// error — the connection survives and keeps serving.
func TestBatchReadOversizedPerRequestError(t *testing.T) {
	_, addr := startDaemon(t, fastConfig(1)) // flat backend: MaxBatch = DefaultMaxBatch

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	big := make([]uint64, DefaultMaxBatch+1)
	for i := range big {
		big[i] = uint64(i)
	}
	_, err = cl.ReadBatch("", big)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("oversized batch error = %v, want a RemoteError", err)
	}
	if remote.Code != CodeBatchTooLarge {
		t.Errorf("oversized batch code = %q, want %s", remote.Code, CodeBatchTooLarge)
	}

	// The same connection must still serve: a coded refusal is not a
	// protocol violation and must not tear the session down.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after oversized batch: %v", err)
	}
	if _, err := cl.Read(0); err != nil {
		t.Fatalf("read after oversized batch: %v", err)
	}
}

// TestBatchReadOutOfRangeMember: an invalid address inside a batch fails
// only its own slot — the valid members around it are served normally.
func TestBatchReadOutOfRangeMember(t *testing.T) {
	cfg := fastConfig(2) // 1024 blocks
	_, addr := startDaemon(t, cfg)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	buf := make([]byte, 64)
	FillPayload(buf, 5, 1, 5)
	if err := cl.Write(5, buf); err != nil {
		t.Fatal(err)
	}

	results, err := cl.ReadBatch("", []uint64{5, 99999, 6})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid members failed: %v / %v", results[0].Err, results[2].Err)
	}
	if !bytes.Equal(results[0].Data, buf) {
		t.Errorf("member 0 data mismatch")
	}
	var remote *RemoteError
	if !errors.As(results[1].Err, &remote) || remote.Code != CodeOutOfRange {
		t.Errorf("out-of-range member error = %v, want RemoteError code %s", results[1].Err, CodeOutOfRange)
	}
}

// TestBatchRidesOneSlot is the tentpole's mechanism pinned at the Service
// layer: a client batch of k distinct addresses enqueues contiguously, so
// the batched backend's slot drain lifts the whole batch into one paced
// slot instead of spending k slots on it.
func TestBatchRidesOneSlot(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  64,
		Backend:     BackendBatched,
		BatchK:      4,
		EvictEvery:  4,
		ClockHz:     1_000_000,
		ORAMLatency: 5_000,
		Rates:       []uint64{45_000}, // 50 ms slots: the batch is queued well before one fires
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	results, err := st.ReadBatch("", []uint64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
	}
	sh := st.Stats().Shards[0]
	if sh.RealAccesses > 2 {
		t.Errorf("a 4-address batch cost %d real slots, want ≤ 2 with k=4", sh.RealAccesses)
	}
	if sh.BatchFetched < 4 {
		t.Errorf("BatchFetched = %d, want ≥ 4", sh.BatchFetched)
	}
}

// TestValidateBatchFrame: Config.Validate sizes maxFrameBytes against the
// worst-case batch response frame (k full blocks, every member failed with
// the longest text), not just one block, so a k × BlockBytes combination
// that could overflow a frame is refused at construction instead of tearing
// down connections at the first full batch.
func TestValidateBatchFrame(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  16384, // fine alone, 64 of them per frame is not
		Z:           3,
		QueueDepth:  64,
		Backend:     BackendBatched,
		BatchK:      64,
		EvictEvery:  4,
		ClockHz:     1_000_000,
		ORAMLatency: 20,
		Rates:       []uint64{480},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("batch frame overflow accepted")
	}
	if !strings.Contains(err.Error(), "BatchK or BlockBytes") {
		t.Fatalf("error %q does not name the remedy", err)
	}

	// The same block size with a small k fits.
	cfg.BatchK = 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("k=8 at 16 KiB blocks rejected: %v", err)
	}
}
