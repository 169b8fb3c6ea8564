package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tcoram/internal/adversary"
)

func TestParseTenantBudgets(t *testing.T) {
	got, err := ParseTenantBudgets("alice=32, bob=64.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["alice"] != 32 || got["bob"] != 64.5 {
		t.Fatalf("parsed %v", got)
	}
	if got, err := ParseTenantBudgets(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"alice", "=3", "alice=", "alice=x", "alice=-1", "alice=1,alice=2", ","} {
		if _, err := ParseTenantBudgets(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestConfigValidateTenantBudgets(t *testing.T) {
	cfg := fastConfig(1)
	cfg.TenantBudgets = map[string]float64{"": 4}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "TenantBudgets") {
		t.Errorf("empty tenant name not rejected: %v", err)
	}
	cfg.TenantBudgets = map[string]float64{"alice": -1}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "TenantBudgets") {
		t.Errorf("negative sub-budget not rejected: %v", err)
	}
}

// TestTenantBudgetIndependentTrips is the acceptance test for per-tenant
// sub-budgets: two tenants drive one store through epoch transitions under
// different budgets, and the tight one trips — alice is refused with the
// tenant_budget_exhausted code while bob keeps being served and the
// learner keeps adapting. The per-tenant accounts must also replay: each
// tenant's leaked_bits is exactly its charged transitions × lg|R|.
func TestTenantBudgetIndependentTrips(t *testing.T) {
	cfg := Config{
		Shards:        1,
		Blocks:        256,
		BlockBytes:    64,
		ClockHz:       1_000_000,
		ORAMLatency:   5,
		Rates:         []uint64{45, 195, 495, 995}, // |R| = 4 → 2 bits per transition
		InitialRate:   995,
		EpochFirstLen: 20_000, // 20 ms, growth 2: transitions at 20/60/140/300 ms
		EpochGrowth:   2,
		TenantBudgets: map[string]float64{
			"alice": 3,    // dead after the 2nd charged transition (4 > 3 bits)
			"bob":   1000, // never trips in this test
		},
	}
	st, addr := startDaemon(t, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Drive both tenants until alice is refused (or we give up). Every op
	// in a paced epoch marks its tenant active, and every tenant active in
	// an epoch is charged that epoch's full lg|R|-bit transition.
	var aliceErr error
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(0); time.Now().Before(deadline); i++ {
		a := i % 256
		if err := cl.Do("bob", []Op{{Addr: a}}); err != nil {
			t.Fatalf("bob refused: %v", err)
		}
		if err := cl.Do("alice", []Op{{Addr: a}}); err != nil {
			aliceErr = err
			break
		}
	}
	if aliceErr == nil {
		t.Fatal("alice never hit her 3-bit sub-budget within 10 s of 20 ms-seeded epochs")
	}
	var remote *RemoteError
	if !errors.As(aliceErr, &remote) || remote.Code != CodeTenantBudget {
		t.Fatalf("alice's refusal = %v, want RemoteError code %s", aliceErr, CodeTenantBudget)
	}

	// The refusal is per-tenant and per-op: alice stays dead, bob serves on,
	// on the same connection. Batches are refused the same way.
	if err := cl.Do("alice", []Op{{Addr: 1}}); ErrorCode(err) != CodeTenantBudget {
		t.Errorf("alice re-admitted: %v", err)
	}
	if err := cl.Do("alice", []Op{{Addr: 1, Write: true, Data: make([]byte, 64)}}); ErrorCode(err) != CodeTenantBudget {
		t.Errorf("alice write admitted: %v", err)
	}
	if _, err := cl.ReadBatch("alice", []uint64{1, 2}); ErrorCode(err) != CodeTenantBudget {
		t.Errorf("alice batch admitted: %v", err)
	}
	if err := cl.Do("bob", []Op{{Addr: 9}}); err != nil {
		t.Errorf("bob refused after alice tripped: %v", err)
	}
	// Anonymous (empty-tenant) traffic carries no sub-budget and is served.
	if _, err := cl.Read(9); err != nil {
		t.Errorf("anonymous read refused: %v", err)
	}
	// The tenant string is unauthenticated: the ops alice was refused are
	// served once she renames herself. This pins today's evasion — a
	// sub-budget bounds honest tenants only (docs/LEAKAGE.md).
	if err := cl.Do("alice2", []Op{{Addr: 1}}); err != nil {
		t.Errorf("renamed tenant refused: %v", err)
	}
	if err := cl.Do("alice2", []Op{{Addr: 1, Write: true, Data: make([]byte, 64)}}); err != nil {
		t.Errorf("renamed tenant's write refused: %v", err)
	}
	if _, err := cl.ReadBatch("alice2", []uint64{1, 2}); err != nil {
		t.Errorf("renamed tenant's batch refused: %v", err)
	}

	stats := st.Stats()
	byName := map[string]TenantStat{}
	for _, ts := range stats.Tenants {
		byName[ts.Tenant] = ts
	}
	alice, ok := byName["alice"]
	if !ok {
		t.Fatal("no alice row in stats.Tenants")
	}
	bob, ok := byName["bob"]
	if !ok {
		t.Fatal("no bob row in stats.Tenants")
	}
	if !alice.Exceeded {
		t.Errorf("alice not flagged exceeded: %+v", alice)
	}
	if bob.Exceeded {
		t.Errorf("bob flagged exceeded: %+v", bob)
	}
	if alice.BudgetBits != 3 || bob.BudgetBits != 1000 {
		t.Errorf("budgets echoed as alice=%v bob=%v", alice.BudgetBits, bob.BudgetBits)
	}
	// Per-tenant replay: with |R| = 4, every charged transition is exactly
	// 2 bits, so each account must equal 2 × its transition count — the
	// same arithmetic the adversary's schedule reconstruction performs on
	// the public rate-change history.
	for name, ts := range byName {
		if want := 2 * float64(ts.Transitions); ts.LeakedBits != want {
			t.Errorf("%s: leaked_bits = %v over %d transitions, want %v", name, ts.LeakedBits, ts.Transitions, want)
		}
	}
	if alice.LeakedBits <= alice.BudgetBits {
		t.Errorf("alice refused at %v bits under her %v budget", alice.LeakedBits, alice.BudgetBits)
	}
}

// TestTenantChargedOncePerActiveEpoch pins the attribution rule across idle
// boundaries: alice is active in one epoch, then the shard crosses at least
// three more boundaries with no traffic. The store's account counts every
// boundary, exactly as the adversary's replay of the published history
// does, while alice is charged the one transition that closed her epoch.
func TestTenantChargedOncePerActiveEpoch(t *testing.T) {
	cfg := Config{
		Shards:        1,
		Blocks:        256,
		BlockBytes:    64,
		ClockHz:       1_000_000,
		ORAMLatency:   5,
		Rates:         []uint64{45, 195, 495, 995},
		InitialRate:   995,
		EpochFirstLen: 20_000, // boundaries at 20/60/140/300 ms
		EpochGrowth:   2,
		TenantBudgets: map[string]float64{"alice": 3, "bob": 1000},
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Do("alice", []Op{{Addr: 1}}); err != nil {
		t.Fatal(err)
	}

	var stats Stats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stats = st.Stats()
		if stats.Transitions >= 4 || time.Now().After(deadline) {
			break
		}
	}
	if stats.Transitions < 4 {
		t.Fatalf("%d transitions within 10 s of 20 ms-seeded epochs, want ≥ 4", stats.Transitions)
	}
	rec := adversary.ReconstructSchedule(stats.Shards[0].RateChanges, len(cfg.Rates))
	if uint64(rec.Transitions) != stats.Transitions || rec.Bits != stats.LeakedBits {
		t.Errorf("store account %d transitions / %v bits, replay %d / %v",
			stats.Transitions, stats.LeakedBits, rec.Transitions, rec.Bits)
	}
	want := []TenantStat{
		{Tenant: "alice", Transitions: 1, LeakedBits: 2, BudgetBits: 3},
		{Tenant: "bob", BudgetBits: 1000},
	}
	if len(stats.Tenants) != len(want) {
		t.Fatalf("Tenants = %+v, want %+v", stats.Tenants, want)
	}
	for i := range want {
		if stats.Tenants[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, stats.Tenants[i], want[i])
		}
	}
	if err := st.Do("alice", []Op{{Addr: 1}}); err != nil {
		t.Errorf("alice refused at 2 bits under her 3-bit budget: %v", err)
	}
}

// TestTenantStatsZeroTraffic: a budgeted tenant that never sent an op still
// gets a zero account row, so operators see the whole budget table.
func TestTenantStatsZeroTraffic(t *testing.T) {
	cfg := fastConfig(1)
	cfg.TenantBudgets = map[string]float64{"idle": 8}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	stats := st.Stats()
	if len(stats.Tenants) != 1 {
		t.Fatalf("Tenants = %+v, want one idle row", stats.Tenants)
	}
	ts := stats.Tenants[0]
	if ts.Tenant != "idle" || ts.Transitions != 0 || ts.LeakedBits != 0 || ts.BudgetBits != 8 || ts.Exceeded {
		t.Errorf("idle tenant row = %+v", ts)
	}
}
