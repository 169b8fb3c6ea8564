package server

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"tcoram/internal/adversary"
)

// fastConfig paces at a 500 µs slot period — fast enough that tests finish
// promptly, slow enough that the pacing loops never saturate a 1-vCPU CI
// box (an access on this small tree costs a few µs, tens under -race).
func fastConfig(shards int) Config {
	return Config{
		Shards:      shards,
		Blocks:      1024,
		BlockBytes:  64,
		QueueDepth:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 20,
		Rates:       []uint64{480},
	}
}

func TestShardRoutingDeterministic(t *testing.T) {
	st, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	counts := make([]int, 4)
	for addr := uint64(0); addr < 1024; addr++ {
		a, b := st.ShardOf(addr), st.ShardOf(addr)
		if a != b {
			t.Fatalf("routing for %d not deterministic: %d vs %d", addr, a, b)
		}
		if a != int(addr%4) {
			t.Fatalf("ShardOf(%d) = %d, want %d", addr, a, addr%4)
		}
		counts[a]++
	}
	for i, c := range counts {
		if c != 256 {
			t.Errorf("shard %d owns %d blocks, want 256", i, c)
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	st, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for addr := uint64(0); addr < 64; addr++ {
		want := make([]byte, 64)
		FillPayload(want, addr, 0, addr)
		if err := st.Write(addr, want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: read %x, want %x", addr, got[:16], want[:16])
		}
	}

	// Unwritten blocks read as zeroes.
	got, err := st.Read(900)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("unwritten block not zero: %x", got[:16])
	}

	// Out-of-range and oversized requests fail cleanly.
	if _, err := st.Read(4096); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := st.Write(0, make([]byte, 65)); err == nil {
		t.Error("oversized write accepted")
	}
}

// TestConcurrentDisjointClients: many goroutines on disjoint key ranges;
// every read-after-write must return the exact payload (run under -race in
// CI).
func TestConcurrentDisjointClients(t *testing.T) {
	st, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const clients = 8
	const perClient = 40
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			base := uint64(cl) * 128
			buf := make([]byte, 64)
			for i := 0; i < perClient; i++ {
				addr := base + uint64(i%32)
				FillPayload(buf, addr, uint32(cl), uint64(i))
				if err := st.Write(addr, buf); err != nil {
					t.Errorf("client %d write %d: %v", cl, addr, err)
					return
				}
				got, err := st.Read(addr)
				if err != nil {
					t.Errorf("client %d read %d: %v", cl, addr, err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("client %d block %d: read %x want %x", cl, addr, got[:16], buf[:16])
					return
				}
			}
		}(cl)
	}
	wg.Wait()
}

// TestConcurrentOverlappingClients: goroutines hammer a small shared key
// set; reads must always surface a well-formed payload for the right block
// (no torn or cross-block data), even though which write wins is racy.
func TestConcurrentOverlappingClients(t *testing.T) {
	st, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const clients = 8
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				addr := uint64((cl + i) % 16) // heavy overlap
				if i%2 == 0 {
					FillPayload(buf, addr, uint32(cl), uint64(i))
					if err := st.Write(addr, buf); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				} else {
					got, err := st.Read(addr)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if err := CheckPayload(got, addr); err != nil {
						t.Errorf("block %d corrupted: %v", addr, err)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
}

// TestIdlePacingEmitsDummies is the satellite pacing test: an idle paced
// shard must issue dummy accesses on its slot grid at the configured rate.
// The loop's catch-up behaviour makes the issued count track wall time
// even when the goroutine is scheduled late, so the bound is two-sided.
func TestIdlePacingEmitsDummies(t *testing.T) {
	cfg := Config{
		Shards:      2,
		Blocks:      256,
		BlockBytes:  64,
		ClockHz:     1_000_000, // 1 cycle = 1 µs
		ORAMLatency: 100,
		Rates:       []uint64{900}, // slot period 1000 cycles = 1 ms
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const wait = 300 * time.Millisecond
	time.Sleep(wait)
	stats := st.Stats()

	period := time.Duration(cfg.Rates[0]+cfg.ORAMLatency) * time.Microsecond
	expected := float64(wait) / float64(period) // ≈ 300
	for _, sh := range stats.Shards {
		if sh.RealAccesses != 0 {
			t.Errorf("shard %d issued %d real accesses while idle", sh.Shard, sh.RealAccesses)
		}
		got := float64(sh.DummyAccesses)
		if got < expected*0.5 || got > expected*1.5 {
			t.Errorf("shard %d: %v dummies in %v, want ≈%.0f (±50%%)", sh.Shard, got, wait, expected)
		}
		if sh.Rate != cfg.Rates[0] {
			t.Errorf("shard %d rate = %d, want %d", sh.Shard, sh.Rate, cfg.Rates[0])
		}
	}
	if f := stats.DummyFraction(); f != 1 {
		t.Errorf("idle dummy fraction = %v, want 1", f)
	}
}

// TestCoalescing: requests queued for the same block while a slow slot grid
// holds them must collapse into one access, and queued reads must observe
// the queued write that precedes them.
func TestCoalescing(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 5_000,
		Rates:       []uint64{45_000}, // 50 ms slot period: plenty to pile up
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want := make([]byte, 64)
	FillPayload(want, 7, 9, 1)

	var wg sync.WaitGroup
	errs := make([]error, 5)
	datas := make([][]byte, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = st.Write(7, want)
	}()
	time.Sleep(5 * time.Millisecond) // let the write enqueue first
	for i := 1; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			datas[i], errs[i] = st.Read(7)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < 5; i++ {
		if !bytes.Equal(datas[i], want) {
			t.Fatalf("coalesced read %d got %x, want %x", i, datas[i][:16], want[:16])
		}
	}
	stats := st.Stats()
	real, _, coalesced := stats.Totals()
	if coalesced < 3 {
		t.Errorf("coalesced = %d, want ≥ 3 (5 same-block requests)", coalesced)
	}
	if real > 2 {
		t.Errorf("5 same-block requests cost %d real accesses, want ≤ 2", real)
	}
}

// TestTakeGroupEarliestArrival pins the learner-input fix: the arrival a
// coalesced group reports to the enforcer is the earliest stamp across the
// whole group (Fig 4 semantics — every member's queueing time counts, and
// the union of their waits is [min arrival, slot]), not whatever the FIFO
// head happens to carry. Submitters stamp arrival before enqueueing, so a
// member can legitimately carry an earlier stamp than the head.
func TestTakeGroupEarliestArrival(t *testing.T) {
	mk := func(local, arrival uint64) *request {
		return &request{local: local, arrival: arrival, resp: make(chan error, 1)}
	}
	sh := &shard{}
	sh.fifo = []*request{mk(7, 100), mk(3, 50), mk(7, 40), mk(7, 200)}

	arrival := sh.takeBatch(1) // one group per slot: the classic presets' take
	if arrival != 40 {
		t.Errorf("group arrival = %d, want 40 (earliest member, not head's 100)", arrival)
	}
	if len(sh.batch) != 1 || len(sh.batch[0]) != 3 {
		t.Errorf("batch = %v, want one group of 3", sh.batch)
	}
	if len(sh.fifo) != 1 || sh.fifo[0].local != 3 {
		t.Errorf("remaining fifo = %+v, want the single block-3 request", sh.fifo)
	}
	if got := sh.coalesced.Load(); got != 2 {
		t.Errorf("coalesced = %d, want 2", got)
	}
}

// TestTakeBatchEarliestArrival extends the learner-input fix to the batched
// drain: when a slot serves up to k distinct-block groups, the arrival it
// reports to TakeSlot is the earliest stamp across every member of every
// drained group — all those members' wait intervals end at this same slot,
// so their union is [min arrival, slot], exactly as for one coalesced
// group. Reporting only the first group's minimum would hide a later
// group's earlier-stamped member from the learner's Waste precisely when
// batching is doing its job.
func TestTakeBatchEarliestArrival(t *testing.T) {
	mk := func(local, arrival uint64) *request {
		return &request{local: local, arrival: arrival, resp: make(chan error, 1)}
	}
	sh := &shard{}
	sh.fifo = []*request{mk(7, 100), mk(3, 50), mk(7, 40), mk(9, 200), mk(3, 25), mk(5, 500)}

	arrival := sh.takeBatch(3)
	if arrival != 25 {
		t.Errorf("batch arrival = %d, want 25 (earliest member of the block-3 group)", arrival)
	}
	if len(sh.batch) != 3 {
		t.Fatalf("batch has %d groups, want 3", len(sh.batch))
	}
	wantGroups := [][]uint64{{7, 7}, {3, 3}, {9}}
	for i, g := range sh.batch {
		if len(g) != len(wantGroups[i]) {
			t.Fatalf("group %d has %d members, want %d", i, len(g), len(wantGroups[i]))
		}
		for j, req := range g {
			if req.local != wantGroups[i][j] {
				t.Errorf("group %d member %d is block %d, want %d", i, j, req.local, wantGroups[i][j])
			}
		}
	}
	if len(sh.fifo) != 1 || sh.fifo[0].local != 5 {
		t.Errorf("remaining fifo = %+v, want the single block-5 request", sh.fifo)
	}
	if got := sh.coalesced.Load(); got != 2 {
		t.Errorf("coalesced = %d, want 2 (one extra member each in groups 7 and 3)", got)
	}

	// A second drain takes the leftover and reports its own arrival.
	if arrival := sh.takeBatch(3); arrival != 500 {
		t.Errorf("second batch arrival = %d, want 500", arrival)
	}
	if len(sh.batch) != 1 {
		t.Errorf("second batch has %d groups, want 1", len(sh.batch))
	}
}

// TestCoalescedWaitsReachLearnerWaste drives the real pacing loop: requests
// that pile up behind a slow slot grid and coalesce into one access must
// still deposit their queueing time into the enforcer's Waste counter — the
// signal the epoch learner reads to speed up under load.
func TestCoalescedWaitsReachLearnerWaste(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 5_000,
		Rates:       []uint64{95_000}, // 100 ms slot period: plenty to pile up
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := make([]byte, 64)
	FillPayload(payload, 7, 1, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := st.Write(7, payload); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the write enqueue first
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Read(7); err != nil {
				t.Errorf("read: %v", err)
			}
		}()
	}
	wg.Wait()

	c := st.shards[0].enf.Counters()
	if c.AccessCount < 1 {
		t.Fatalf("AccessCount = %d, want ≥ 1", c.AccessCount)
	}
	// The group arrived within the first few ms of a 100 ms slot wait: the
	// learner must see on the order of the full slot period as Waste. (The
	// generous lower bound keeps the assertion robust to CI jitter.)
	if c.Waste < 50_000 {
		t.Errorf("Waste = %d cycles, want ≥ 50000 (coalesced group queued ~100 ms)", c.Waste)
	}
	if _, _, coalesced := st.Stats().Totals(); coalesced < 3 {
		t.Errorf("coalesced = %d, want ≥ 3", coalesced)
	}
}

// TestShardStatsSurfaceGridSlip stalls a shard the honest way: a 1 µs slot
// period at 1 GHz that no software ORAM access can hold, so the grid slips
// behind the wall clock from the first slot and the catch-up counters must
// say so in ShardStats.
func TestShardStatsSurfaceGridSlip(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  64,
		ClockHz:     1_000_000_000,
		ORAMLatency: 200,
		Rates:       []uint64{800}, // 1 µs period; an access costs several µs
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	time.Sleep(150 * time.Millisecond)
	stats := st.Stats()
	sh := stats.Shards[0]
	if sh.DummyAccesses == 0 {
		t.Fatal("stalled shard issued no accesses at all")
	}
	if sh.OverdueSlots == 0 {
		t.Error("grid permanently behind wall clock but OverdueSlots = 0")
	}
	if sh.MaxLagCycles < 1000 {
		t.Errorf("MaxLagCycles = %d, want ≥ one period (1000)", sh.MaxLagCycles)
	}
	overdue, lag := stats.Slip()
	if overdue < sh.OverdueSlots || lag < sh.MaxLagCycles {
		t.Errorf("Stats.Slip() = (%d, %d), below the shard's own (%d, %d)",
			overdue, lag, sh.OverdueSlots, sh.MaxLagCycles)
	}
}

func TestCloseFailsPendingAndFutureRequests(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  64,
		ClockHz:     1_000_000,
		ORAMLatency: 50_000,
		Rates:       []uint64{950_000}, // 1 s period: requests stay queued
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		_, err := st.Read(3)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != ErrClosed {
			t.Fatalf("pending read returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending read not failed by Close")
	}
	if _, err := st.Read(3); err != ErrClosed {
		t.Fatalf("post-close read returned %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestUnpacedMode checks that an unpaced shard issues no dummies and that
// every acked op's slot is already counted when the ack arrives: a client
// reading Stats right after an ack must find its own access in the totals.
func TestUnpacedMode(t *testing.T) {
	const blocks, writes = 256, 20_000
	st, err := New(Config{Shards: 1, Blocks: blocks, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	checkTotals := func(want uint64) {
		t.Helper()
		real, dummy, _ := st.Stats().Totals()
		if dummy != 0 {
			t.Fatalf("unpaced mode issued %d dummies", dummy)
		}
		if real != want {
			t.Fatalf("real accesses = %d after %d acked ops", real, want)
		}
	}
	buf := make([]byte, 64)
	for i := uint64(0); i < writes; i++ {
		addr := i % blocks
		FillPayload(buf, addr, 1, i)
		if err := st.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
		checkTotals(i + 1)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := st.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPayload(got, addr); err != nil {
			t.Fatal(err)
		}
		checkTotals(writes + addr + 1)
	}
}

func TestStatsSnapshot(t *testing.T) {
	st, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Write(5, []byte("hello")); err != nil { // short write pads
		t.Fatal(err)
	}
	got, err := st.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatalf("short write round-trip: %q", got[:5])
	}
	stats := st.Stats()
	if len(stats.Shards) != 4 || stats.Blocks != 1024 || stats.BlockBytes != 64 {
		t.Fatalf("stats header wrong: %+v", stats)
	}
	real, _, _ := stats.Totals()
	if real < 2 {
		t.Fatalf("real accesses = %d, want ≥ 2", real)
	}
	if stats.Shards[st.ShardOf(5)].RealAccesses < 2 {
		t.Fatalf("owning shard shows %d real accesses", stats.Shards[st.ShardOf(5)].RealAccesses)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error New must return
	}{
		{"negative shards", Config{Shards: -1}, "Shards must be positive"},
		{"descending rates", Config{Rates: []uint64{100, 50}}, "strictly ascending"},
		{"duplicate rates", Config{Rates: []uint64{100, 100}}, "strictly ascending"},
		{"oversized block", Config{BlockBytes: 1 << 20}, "wire protocol"},
		{"negative queue", Config{QueueDepth: -1}, "QueueDepth"},
		{"clock too fast", Config{ClockHz: 2_000_000_000}, "ClockHz"},
		{"epoch growth 1", Config{EpochFirstLen: 1000, EpochGrowth: 1}, "EpochGrowth"},
		{"negative leak budget", Config{LeakageBudgetBits: -4}, "LeakageBudgetBits"},
		// An off-set initial rate would be revealed to the timing observer
		// without being one of the |R| accounted choices, silently breaking
		// the lg|R|-per-transition leakage arithmetic.
		{"initial rate off-set", Config{Rates: []uint64{45, 495}, InitialRate: 86}, "InitialRate"},
		{"unknown backend", Config{Backend: "pyramid"}, "Backend"},
		{"recursion too deep", Config{Backend: BackendRecursive, Recursion: 9}, "Recursion"},
		{"batched bad k", Config{Backend: BackendBatched, BatchK: -1}, "BatchK"},
		{"batched k too large", Config{Backend: BackendBatched, BatchK: 65}, "BatchK"},
		{"batched bad evict period", Config{Backend: BackendBatched, EvictEvery: -1}, "EvictEvery"},
		{"batched recursion too deep", Config{Backend: BackendBatched, Recursion: 9}, "Recursion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad field (want substring %q)", err, tc.want)
			}
		})
	}

	// Validate (pre-defaults) also rejects what withDefaults would paper
	// over inside New, so direct callers get the same errors.
	if err := (Config{Shards: 1, Blocks: 64, BlockBytes: 64, ClockHz: 1000, ORAMLatency: 10}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "empty rate set") {
		t.Errorf("empty rate set not rejected by Validate: %v", err)
	}
	if err := (Config{Shards: 1, Blocks: 64, BlockBytes: 64, ClockHz: 1000, Rates: []uint64{50}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "ORAMLatency") {
		t.Errorf("zero ORAMLatency not rejected by Validate: %v", err)
	}
	// A member initial rate (not just the default last element) is fine.
	ok := fastConfig(1)
	ok.Rates = []uint64{45, 480}
	ok.InitialRate = 45
	if st, err := New(ok); err != nil {
		t.Errorf("member InitialRate rejected: %v", err)
	} else {
		st.Close()
	}

	// Unpaced mode ignores the enforcer fields entirely.
	st, err := New(Config{Unpaced: true, ClockHz: 2_000_000_000})
	if err != nil {
		t.Errorf("unpaced config rejected on enforcer fields: %v", err)
	} else {
		st.Close()
	}
}

// TestRecursiveBackendReadYourWrites serves the store from recursive,
// integrity-checked shard backends: the full KV surface must behave
// identically to the flat backend, and the stats must expose the stack's
// per-level stash peaks.
func TestRecursiveBackendReadYourWrites(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Backend = BackendRecursive
	cfg.Recursion = 2
	cfg.Integrity = true
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if got := st.Config().Recursion; got != 2 {
		t.Fatalf("effective Recursion = %d, want 2", got)
	}
	for addr := uint64(0); addr < 48; addr++ {
		want := make([]byte, 64)
		FillPayload(want, addr, 0, addr)
		if err := st.Write(addr, want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: read %x, want %x", addr, got[:16], want[:16])
		}
	}
	// Unwritten blocks read as zeroes; out-of-range still fails cleanly.
	got, err := st.Read(900)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("unwritten block not zero: %x", got[:16])
	}
	if _, err := st.Read(4096); err == nil {
		t.Error("out-of-range read accepted")
	}

	stats := st.Stats()
	for _, sh := range stats.Shards {
		if len(sh.StashPeaks) != 1+cfg.Recursion {
			t.Errorf("shard %d StashPeaks has %d levels, want %d", sh.Shard, len(sh.StashPeaks), 1+cfg.Recursion)
		}
		sum := 0
		for _, p := range sh.StashPeaks {
			sum += p
		}
		if sh.StashPeak != sum {
			t.Errorf("shard %d StashPeak %d != sum of levels %d", sh.Shard, sh.StashPeak, sum)
		}
		if sh.StashPeaks[0] == 0 {
			t.Errorf("shard %d data-level stash peak is 0 after 96 real accesses", sh.Shard)
		}
	}
}

// TestBatchedBackendReadYourWrites serves the store from batched multi-path
// shard backends (with recursion and integrity layered on): the KV surface
// must behave identically to the other backends, and the stats must expose
// the batch counters and per-level stash peaks.
func TestBatchedBackendReadYourWrites(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Backend = BackendBatched
	cfg.Recursion = 1
	cfg.Integrity = true
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if got := st.Config().BatchK; got != 4 {
		t.Fatalf("effective BatchK = %d, want the default 4", got)
	}
	if got := st.Config().BackendLabel(); got != "batched×1(k=4,K=4)+integrity" {
		t.Fatalf("BackendLabel = %q", got)
	}
	for addr := uint64(0); addr < 48; addr++ {
		want := make([]byte, 64)
		FillPayload(want, addr, 0, addr)
		if err := st.Write(addr, want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: read %x, want %x", addr, got[:16], want[:16])
		}
	}
	got, err := st.Read(900)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("unwritten block not zero: %x", got[:16])
	}
	if _, err := st.Read(4096); err == nil {
		t.Error("out-of-range read accepted")
	}

	stats := st.Stats()
	var fetched uint64
	for _, sh := range stats.Shards {
		if len(sh.StashPeaks) != 1+cfg.Recursion {
			t.Errorf("shard %d StashPeaks has %d levels, want %d", sh.Shard, len(sh.StashPeaks), 1+cfg.Recursion)
		}
		if sh.StashPeaks[0] == 0 {
			t.Errorf("shard %d data-level stash peak is 0 after real batched accesses", sh.Shard)
		}
		fetched += sh.BatchFetched
	}
	if fetched == 0 {
		t.Error("no blocks reported through BatchFetched on a batched backend")
	}
}

// TestBatchedBackendServesKPerSlot is the tentpole's throughput mechanism
// observed directly: distinct-block requests held by a slow slot grid are
// served k per slot, where the single-access backends would need one slot
// each.
func TestBatchedBackendServesKPerSlot(t *testing.T) {
	cfg := Config{
		Shards:      1,
		Blocks:      64,
		BlockBytes:  64,
		Backend:     BackendBatched,
		BatchK:      4,
		EvictEvery:  4,
		ClockHz:     1_000_000,
		ORAMLatency: 5_000,
		Rates:       []uint64{45_000}, // 50 ms slots: requests pile up
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n = 8 // two full batches of distinct blocks
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 64)
			FillPayload(buf, uint64(i), 1, uint64(i))
			errs[i] = st.Write(uint64(i), buf)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	stats := st.Stats()
	sh := stats.Shards[0]
	if sh.RealAccesses > 3 {
		t.Errorf("%d distinct blocks cost %d real slots, want ≤ 3 with k=4", n, sh.RealAccesses)
	}
	if sh.BatchFetched < n {
		t.Errorf("BatchFetched = %d, want ≥ %d", sh.BatchFetched, n)
	}
	if sh.ForcedEvictions != 0 {
		t.Errorf("ForcedEvictions = %d under a light load, want 0", sh.ForcedEvictions)
	}
}

// TestFlatBackendReportsSingleStashLevel: the flat default keeps its
// existing stats shape, just with the one-level breakdown attached.
func TestFlatBackendReportsSingleStashLevel(t *testing.T) {
	st, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sh := st.Stats().Shards[0]
	if len(sh.StashPeaks) != 1 {
		t.Fatalf("flat backend StashPeaks = %v, want exactly one level", sh.StashPeaks)
	}
	if sh.StashPeaks[0] != sh.StashPeak {
		t.Fatalf("flat backend level peak %d != StashPeak %d", sh.StashPeaks[0], sh.StashPeak)
	}
}

// TestDynamicScheduleAdaptsRate: with the paper's epoch learner behind the
// wall-clock adapter, a saturating workload should hold or raise the rate
// across epoch transitions without ever corrupting data.
func TestDynamicScheduleAdaptsRate(t *testing.T) {
	cfg := Config{
		Shards:        2,
		Blocks:        256,
		BlockBytes:    64,
		ClockHz:       1_000_000,
		ORAMLatency:   5,
		Rates:         []uint64{45, 195, 495},
		InitialRate:   495,
		EpochFirstLen: 20_000, // 20 ms epochs, growth 4
		EpochGrowth:   4,
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	buf := make([]byte, 64)
	deadline := time.Now().Add(400 * time.Millisecond)
	var i uint64
	for time.Now().Before(deadline) {
		addr := i % 256
		FillPayload(buf, addr, 0, i)
		if err := st.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
		got, err := st.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPayload(got, addr); err != nil {
			t.Fatal(err)
		}
		i++
	}
	stats := st.Stats()
	for _, sh := range stats.Shards {
		if sh.Epoch == 0 {
			t.Errorf("shard %d never left epoch 0 in 400 ms of 20 ms epochs", sh.Shard)
		}
		found := false
		for _, r := range cfg.Rates {
			if sh.Rate == r {
				found = true
			}
		}
		if !found {
			t.Errorf("shard %d rate %d not in the allowed set %v", sh.Shard, sh.Rate, cfg.Rates)
		}
	}
}

// TestServerDynamicScheduleLeakageBounded is the server-level dynamic-
// schedule acceptance test: a paced store with short epochs under sustained
// load must cross epoch boundaries, land on a rate from R, and report a
// leakage account that matches its own transition history and never exceeds
// the paper's lg|R| × |E| bound.
func TestServerDynamicScheduleLeakageBounded(t *testing.T) {
	cfg := Config{
		Shards:            1,
		Blocks:            256,
		BlockBytes:        64,
		ClockHz:           1_000_000,
		ORAMLatency:       5,
		Rates:             []uint64{45, 195, 495, 995}, // |R| = 4 → lg|R| = 2 bits/epoch
		InitialRate:       995,
		EpochFirstLen:     20_000, // 20 ms, growth 2: boundaries at 20/60/140/300 ms
		EpochGrowth:       2,
		LeakageBudgetBits: 64,
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	buf := make([]byte, 64)
	deadline := time.Now().Add(400 * time.Millisecond)
	for i := uint64(0); time.Now().Before(deadline); i++ {
		addr := i % 256
		FillPayload(buf, addr, 0, i)
		if err := st.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(addr); err != nil {
			t.Fatal(err)
		}
	}

	stats := st.Stats()
	sh := stats.Shards[0]
	transitions := 0
	for _, rc := range sh.RateChanges {
		if rc.Epoch > 0 {
			transitions++
		}
		found := false
		for _, r := range cfg.Rates {
			if rc.Rate == r {
				found = true
			}
		}
		if !found && rc.Epoch > 0 { // epoch 0 carries the (free-choice) initial rate
			t.Errorf("epoch %d chose rate %d, not in R = %v", rc.Epoch, rc.Rate, cfg.Rates)
		}
	}
	if transitions < 2 {
		t.Fatalf("only %d epoch transitions in 400 ms of 20 ms-seeded epochs, want ≥ 2", transitions)
	}
	lgR := math.Log2(float64(len(cfg.Rates)))
	wantBits := lgR * float64(transitions)
	if math.Abs(sh.LeakedBits-wantBits) > 1e-9 {
		t.Errorf("shard LeakedBits = %v, want transitions × lg|R| = %v", sh.LeakedBits, wantBits)
	}
	// The paper's bound: leakage never exceeds lg|R| × |E| for the epochs
	// actually expended.
	maxEpoch := sh.RateChanges[len(sh.RateChanges)-1].Epoch
	if bound := lgR * float64(maxEpoch); sh.LeakedBits > bound+1e-9 {
		t.Errorf("LeakedBits %v exceeds lg|R|×|E| = %v", sh.LeakedBits, bound)
	}
	if stats.LeakedBits != sh.LeakedBits {
		t.Errorf("store LeakedBits = %v, single shard has %v", stats.LeakedBits, sh.LeakedBits)
	}
	if stats.LeakageExceeded {
		t.Errorf("budget of %v bits flagged exceeded at %v leaked", cfg.LeakageBudgetBits, stats.LeakedBits)
	}
	if stats.LeakageBudgetBits != cfg.LeakageBudgetBits {
		t.Errorf("budget echoed as %v, want %v", stats.LeakageBudgetBits, cfg.LeakageBudgetBits)
	}
}

// TestAdversaryReplayOfLiveRun closes the ROADMAP "adversary-side
// validation of the service" loop: the rate-change history a live
// dynamic-schedule run publishes is replayed through internal/adversary's
// schedule reconstruction, and the information the adversary recovers must
// equal — exactly, not approximately — the leaked_bits the service reports.
// Until now this validation existed only for the simulator.
//
// The batched subtest proves the multi-path backend's k and K introduce no
// new accounting terms: they reshape what happens inside a slot, not when
// slots happen, so the reconstruction from the same public rate-change
// history still matches the reported leakage exactly.
func TestAdversaryReplayOfLiveRun(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		adversaryReplayOfLiveRun(t, func(*Config) {})
	})
	t.Run("batched", func(t *testing.T) {
		adversaryReplayOfLiveRun(t, func(cfg *Config) {
			cfg.Backend = BackendBatched
			cfg.BatchK = 4
			cfg.EvictEvery = 4
		})
	})
}

func adversaryReplayOfLiveRun(t *testing.T, mutate func(*Config)) {
	cfg := Config{
		Shards:        2,
		Blocks:        256,
		BlockBytes:    64,
		ClockHz:       1_000_000,
		ORAMLatency:   5,
		Rates:         []uint64{45, 195, 495, 995},
		InitialRate:   995,
		EpochFirstLen: 20_000, // 20 ms, growth 2: several transitions in 400 ms
		EpochGrowth:   2,
	}
	mutate(&cfg)
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	buf := make([]byte, 64)
	deadline := time.Now().Add(400 * time.Millisecond)
	for i := uint64(0); time.Now().Before(deadline); i++ {
		addr := i % 256
		FillPayload(buf, addr, 0, i)
		if err := st.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(addr); err != nil {
			t.Fatal(err)
		}
	}

	stats := st.Stats()
	var total float64
	for _, sh := range stats.Shards {
		rec := adversary.ReconstructSchedule(sh.RateChanges, len(cfg.Rates))
		if rec.Transitions == 0 {
			t.Fatalf("shard %d crossed no epoch boundary in 400 ms of 20 ms-seeded epochs", sh.Shard)
		}
		// The reconstruction and the service's accountant compute the same
		// quantity independently; they must agree bit for bit.
		if math.Abs(rec.Bits-sh.LeakedBits) > 1e-12 {
			t.Errorf("shard %d: adversary reconstructs %v bits, service reports %v",
				sh.Shard, rec.Bits, sh.LeakedBits)
		}
		// Every reconstructed post-epoch-0 rate must be one of the |R|
		// choices the account charges lg|R| bits for (this is what the
		// InitialRate validation protects).
		for i, r := range rec.Rates {
			if i == 0 {
				continue
			}
			member := false
			for _, allowed := range cfg.Rates {
				if r == allowed {
					member = true
				}
			}
			if !member {
				t.Errorf("shard %d: reconstructed epoch-%d rate %d outside R=%v", sh.Shard, i, r, cfg.Rates)
			}
		}
		total += rec.Bits
	}
	if math.Abs(total-stats.LeakedBits) > 1e-12 {
		t.Errorf("adversary total %v bits != store leaked_bits %v", total, stats.LeakedBits)
	}
}

// TestLeakageBudgetTrips: a tiny budget must flag an overrun once epoch
// transitions spend it. Transitions are clock events, so an idle store
// spends budget too — each boundary still publishes a rate choice.
func TestLeakageBudgetTrips(t *testing.T) {
	st, err := New(Config{
		Shards:            1,
		Blocks:            64,
		BlockBytes:        64,
		ClockHz:           1_000_000,
		ORAMLatency:       5,
		Rates:             []uint64{45, 195, 495, 995},
		EpochFirstLen:     10_000, // 10 ms, growth 2: boundaries at 10/30/70 ms
		EpochGrowth:       2,
		LeakageBudgetBits: 1, // first 2-bit transition blows it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var stats Stats
	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(20 * time.Millisecond)
		stats = st.Stats()
		if stats.Transitions > 0 || time.Now().After(deadline) {
			break
		}
	}
	if stats.Transitions == 0 {
		t.Fatal("no epoch transitions within 2 s of 10 ms-seeded epochs")
	}
	if !stats.LeakageExceeded {
		t.Errorf("1-bit budget not flagged exceeded after %v bits leaked", stats.LeakedBits)
	}
}

func TestStoreImplementsKV(t *testing.T) {
	var _ KV = (*Store)(nil)
	var _ KV = (*Client)(nil)
}

func TestShardStatsString(t *testing.T) {
	// Ensure the stats marshal cleanly for the daemon's stats op.
	st, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.Stats()
	if got := fmt.Sprintf("%d", len(s.Shards)); got != "2" {
		t.Fatalf("shards = %s", got)
	}
}
