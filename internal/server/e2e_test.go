package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"tcoram/internal/workload"
)

// startDaemon serves a store on an ephemeral TCP port and returns its
// address. The listener dies with the test.
func startDaemon(t *testing.T, cfg Config) (*Store, string) {
	t.Helper()
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	go Serve(l, st)
	t.Cleanup(func() {
		l.Close()
		st.Close()
	})
	return st, l.Addr().String()
}

// TestEndToEndAllScenarios is the acceptance run: loadgen over TCP against
// an in-process oramd with 4 shards and 8 concurrent clients completes
// every scenario with zero lost and zero corrupted reads.
func TestEndToEndAllScenarios(t *testing.T) {
	// 2 ms slot period per shard: fast enough that 4 shards serve 800 ops
	// in about a second, slow enough that four pacing loops plus eight
	// clients don't saturate a 1-vCPU CI box under the race detector
	// (where one ORAM access costs tens of µs).
	cfg := Config{
		Shards:      4,
		Blocks:      1024,
		BlockBytes:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 200,
		Rates:       []uint64{1800},
	}
	_, addr := startDaemon(t, cfg)

	statsClient, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer statsClient.Close()

	for _, sc := range workload.KVScenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			rep, err := RunLoad(
				func() (KV, error) { return Dial(addr) },
				func() (Stats, error) { return statsClient.Stats() },
				LoadConfig{
					Scenario:     sc,
					Clients:      8,
					OpsPerClient: 100,
					Blocks:       cfg.Blocks,
					BlockBytes:   cfg.BlockBytes,
					Seed:         42,
				})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Lost != 0 {
				t.Errorf("%s: %d lost requests", sc, rep.Lost)
			}
			if rep.Corrupted != 0 {
				t.Errorf("%s: %d corrupted reads", sc, rep.Corrupted)
			}
			if rep.Ops != 800 {
				t.Errorf("%s: completed %d ops, want 800", sc, rep.Ops)
			}
			if rep.RealAccesses == 0 {
				t.Errorf("%s: no real ORAM accesses recorded", sc)
			}
			if rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P99 {
				t.Errorf("%s: implausible latency summary %+v", sc, rep.Latency)
			}
			if rep.Throughput() <= 0 {
				t.Errorf("%s: zero throughput", sc)
			}
		})
	}

	// The paced server keeps its grid running between and during scenarios,
	// so some slots must have carried dummies overall.
	stats, err := statsClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	_, dummy, _ := stats.Totals()
	if dummy == 0 {
		t.Error("no dummy accesses across the whole run — pacing inactive?")
	}
	for _, sh := range stats.Shards {
		if sh.Failed {
			t.Errorf("shard %d reported failure", sh.Shard)
		}
	}
}

// TestEndToEndRecursiveIntegrity is the recursive-backend acceptance run:
// the same TCP loadgen drill, but every shard serves from a 3-tree
// recursive Path ORAM stack with Merkle integrity verification on every
// level. All scenarios must complete with zero lost and zero corrupted
// operations — the backend swap may not change the service's semantics.
func TestEndToEndRecursiveIntegrity(t *testing.T) {
	// A recursive access traverses all levels and hashes every bucket it
	// touches, so one slot costs several times a flat access (hundreds of
	// µs under -race on a 1-vCPU box): a 3 ms slot period keeps four pacing
	// loops comfortably inside their budget while 400 ops per scenario
	// still finish in under a second.
	cfg := Config{
		Shards:      4,
		Blocks:      1024,
		BlockBytes:  64,
		Backend:     BackendRecursive,
		Recursion:   2,
		Integrity:   true,
		ClockHz:     1_000_000,
		ORAMLatency: 300,
		Rates:       []uint64{2700},
	}
	_, addr := startDaemon(t, cfg)

	statsClient, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer statsClient.Close()

	for _, sc := range workload.KVScenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			rep, err := RunLoad(
				func() (KV, error) { return Dial(addr) },
				func() (Stats, error) { return statsClient.Stats() },
				LoadConfig{
					Scenario:     sc,
					Clients:      8,
					OpsPerClient: 50,
					Blocks:       cfg.Blocks,
					BlockBytes:   cfg.BlockBytes,
					Seed:         43,
				})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Lost != 0 {
				t.Errorf("%s: %d lost requests", sc, rep.Lost)
			}
			if rep.Corrupted != 0 {
				t.Errorf("%s: %d corrupted reads", sc, rep.Corrupted)
			}
			if rep.Ops != 400 {
				t.Errorf("%s: completed %d ops, want 400", sc, rep.Ops)
			}
			if rep.RealAccesses == 0 {
				t.Errorf("%s: no real ORAM accesses recorded", sc)
			}
		})
	}

	stats, err := statsClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	_, dummy, _ := stats.Totals()
	if dummy == 0 {
		t.Error("no dummy accesses across the whole run — pacing inactive?")
	}
	for _, sh := range stats.Shards {
		if sh.Failed {
			t.Errorf("shard %d reported failure", sh.Shard)
		}
		// The per-level stash breakdown must survive the wire round trip.
		if len(sh.StashPeaks) != 1+cfg.Recursion {
			t.Errorf("shard %d StashPeaks over the wire = %v, want %d levels",
				sh.Shard, sh.StashPeaks, 1+cfg.Recursion)
		}
	}
}

// TestEndToEndBatched is the batched-backend acceptance run: the same TCP
// loadgen drill, but every shard serves up to k=4 blocks per slot from a
// multi-path batched stack with deferred background eviction. All scenarios
// must complete with zero lost and zero corrupted operations — the batching
// may not change the service's semantics, only how much each slot carries.
func TestEndToEndBatched(t *testing.T) {
	// A batched slot fetches k data paths plus an amortized share of the
	// eviction pass (~2k path read+writes per K slots), so one slot costs a
	// few times a flat access; a 3 ms slot period keeps four pacing loops
	// inside their budget under -race while still finishing 400 ops per
	// scenario in about a second at k=4 per slot.
	cfg := Config{
		Shards:      4,
		Blocks:      1024,
		BlockBytes:  64,
		Backend:     BackendBatched,
		BatchK:      4,
		EvictEvery:  4,
		ClockHz:     1_000_000,
		ORAMLatency: 300,
		Rates:       []uint64{2700},
	}
	_, addr := startDaemon(t, cfg)

	statsClient, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer statsClient.Close()

	for _, sc := range workload.KVScenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			rep, err := RunLoad(
				func() (KV, error) { return Dial(addr) },
				func() (Stats, error) { return statsClient.Stats() },
				LoadConfig{
					Scenario:     sc,
					Clients:      8,
					OpsPerClient: 50,
					Blocks:       cfg.Blocks,
					BlockBytes:   cfg.BlockBytes,
					Seed:         44,
				})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Lost != 0 {
				t.Errorf("%s: %d lost requests", sc, rep.Lost)
			}
			if rep.Corrupted != 0 {
				t.Errorf("%s: %d corrupted reads", sc, rep.Corrupted)
			}
			if rep.Ops != 400 {
				t.Errorf("%s: completed %d ops, want 400", sc, rep.Ops)
			}
			if rep.RealAccesses == 0 {
				t.Errorf("%s: no real ORAM accesses recorded", sc)
			}
		})
	}

	stats, err := statsClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	_, dummy, _ := stats.Totals()
	if dummy == 0 {
		t.Error("no dummy accesses across the whole run — pacing inactive?")
	}
	var fetched uint64
	for _, sh := range stats.Shards {
		if sh.Failed {
			t.Errorf("shard %d reported failure", sh.Shard)
		}
		// The batch counters and stash breakdown must survive the wire.
		if len(sh.StashPeaks) != 1 {
			t.Errorf("shard %d StashPeaks over the wire = %v, want 1 level", sh.Shard, sh.StashPeaks)
		}
		fetched += sh.BatchFetched
	}
	if fetched == 0 {
		t.Error("no BatchFetched blocks reported over the wire")
	}
}

// TestDaemonProtocolErrors exercises malformed input and error mapping over
// a real socket.
func TestDaemonProtocolErrors(t *testing.T) {
	_, addr := startDaemon(t, Config{
		Shards: 2, Blocks: 64, BlockBytes: 64,
		ClockHz: 1_000_000, ORAMLatency: 200, Rates: []uint64{800},
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, err := c.Read(9999); err == nil {
		t.Error("out-of-range read succeeded over the wire")
	}
	// The connection survives request-level errors.
	if err := c.Write(3, []byte("ok")); err != nil {
		t.Fatalf("write after error: %v", err)
	}
	got, err := c.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:2]) != "ok" {
		t.Fatalf("read back %q", got[:2])
	}

	// Raw garbage on a fresh socket is not a frame: the daemon hangs up
	// without an answer instead of hanging.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	if n, err := raw.Read(make([]byte, 256)); err != io.EOF {
		t.Fatalf("garbage: read %d bytes, err %v; want the connection closed", n, err)
	}
}

// TestDaemonMalformedBodyOwnID: a pipelined frame whose header parses but
// whose members do not is answered with an error under its own id — the id
// sits at a fixed offset, so it cannot be some other request's — and the
// connection keeps serving the frames after it.
func TestDaemonMalformedBodyOwnID(t *testing.T) {
	_, addr := startDaemon(t, Config{
		Shards: 2, Blocks: 64, BlockBytes: 64,
		ClockHz: 1_000_000, ORAMLatency: 200, Rates: []uint64{800},
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// The middle frame is a read whose address is cut to four bytes.
	frames := bytes.Join([][]byte{
		frame("01", "0000000000000007", "05", "0000", "00000000", "00"),
		frame("01", "0000000000000009", "01", "0001", "00000000", "00", "00000011"),
		frame("01", "0000000000000008", "05", "0000", "00000000", "00"),
	}, nil)
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	// Pings and malformed frames are answered inline, so order is
	// deterministic.
	for i, want := range [][]byte{
		frame("01", "0000000000000007", "05", "0000", "00000000", "00"),
		frame("01", "0000000000000009", "ff", "0001", "00000000", "00", "0001", text("server: bad request: 4 member bytes for 1 members of width 0")),
		frame("01", "0000000000000008", "05", "0000", "00000000", "00"),
	} {
		got, err := readRawFrame(raw)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("response %d:\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestDaemonBrokenFramingCloses: bytes that cannot be delimited — a wrong
// version byte, a length over maxFrameBytes, a frame shorter than its
// header — end the connection with no answer to them, after the answers to
// the frames before them.
func TestDaemonBrokenFramingCloses(t *testing.T) {
	_, addr := startDaemon(t, Config{
		Shards: 2, Blocks: 64, BlockBytes: 64,
		ClockHz: 1_000_000, ORAMLatency: 200, Rates: []uint64{800},
	})
	ping := frame("01", "0000000000000001", "05", "0000", "00000000", "00")
	wrongVersion := append([]byte(nil), ping...)
	wrongVersion[4] = frameVersion + 1
	for name, broken := range map[string][]byte{
		"version":   wrongVersion,
		"oversized": append(binary.BigEndian.AppendUint32(nil, maxFrameBytes), append([]byte{frameVersion}, make([]byte, 64)...)...),
		"short":     frame("01", "0000000000000002", "05"),
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(append(append([]byte(nil), ping...), broken...)); err != nil {
			t.Fatal(err)
		}
		if got, err := readRawFrame(raw); err != nil || !bytes.Equal(got, ping) {
			t.Errorf("%s: the ping before the broken frame got %x, %v", name, got, err)
		}
		if n, err := raw.Read(make([]byte, 64)); err != io.EOF {
			t.Errorf("%s: read %d bytes, err %v after the broken frame; want the connection closed", name, n, err)
		}
		raw.Close()
	}
}

// TestClientPipelining: one shared client, many goroutines — the id
// matching must route every response to its caller.
func TestClientPipelining(t *testing.T) {
	_, addr := startDaemon(t, Config{
		Shards: 4, Blocks: 1024, BlockBytes: 64,
		ClockHz: 1_000_000, ORAMLatency: 200, Rates: []uint64{800},
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := RunLoad(
		func() (KV, error) { return c, nil }, // every "client" shares one conn
		func() (Stats, error) { return c.Stats() },
		LoadConfig{Scenario: workload.KVUniform, Clients: 8, OpsPerClient: 50,
			Blocks: 1024, BlockBytes: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Corrupted != 0 {
		t.Fatalf("shared-connection run lost=%d corrupted=%d", rep.Lost, rep.Corrupted)
	}
	if rep.Ops != 400 {
		t.Fatalf("ops = %d, want 400", rep.Ops)
	}
}
