package leakage

import (
	"sync"
	"testing"
)

func active(names ...string) map[string]struct{} {
	m := make(map[string]struct{}, len(names))
	for _, n := range names {
		m[n] = struct{}{}
	}
	return m
}

func TestLedgerBitsPerTransition(t *testing.T) {
	for _, tc := range []struct {
		rates int
		want  float64
	}{{4, 2}, {8, 3}, {2, 1}} {
		l := NewLedger(tc.rates)
		l.Advance(1, active("alice"))
		a := l.Snapshot()
		if a.Transitions != 1 || a.LeakedBits != tc.want {
			t.Errorf("|R|=%d: one transition = %+v, want %v bits", tc.rates, a, tc.want)
		}
		if len(a.Tenants) != 1 || a.Tenants[0].LeakedBits != tc.want {
			t.Errorf("|R|=%d: alice's row = %+v, want %v bits", tc.rates, a.Tenants, tc.want)
		}
	}
}

func TestLedgerSingleRateChargesZero(t *testing.T) {
	l := NewLedger(1)
	for range 100 {
		l.Advance(1, active("alice"))
	}
	a := l.Snapshot()
	if a.Transitions != 100 || a.LeakedBits != 0 {
		t.Fatalf("|R|=1 account = %+v, want 100 transitions at 0 bits", a)
	}
	if r := a.Tenants[0]; r.Transitions != 100 || r.LeakedBits != 0 {
		t.Fatalf("|R|=1 row = %+v, want 100 transitions at 0 bits", r)
	}
	a.Judge(1, map[string]float64{"alice": 1})
	if a.LeakageExceeded || a.Refusal("alice") != nil {
		t.Fatal("a zero-bit account tripped a 1-bit budget")
	}
}

// TestLedgerAdvanceAttribution pins the attribution rule: a jump across n
// boundaries grows the account by n, one per revealed rate choice, and each
// principal active in the closing epoch by exactly one. The active set is
// consumed, so an idle epoch charges nobody.
func TestLedgerAdvanceAttribution(t *testing.T) {
	l := NewLedger(4)
	act := active("alice", "bob")
	l.Advance(3, act)
	if len(act) != 0 {
		t.Fatalf("Advance left the active set %v", act)
	}
	l.Advance(1, act)
	act["bob"] = struct{}{}
	l.Advance(2, act)
	a := l.Snapshot()
	if a.Transitions != 6 || a.LeakedBits != 12 {
		t.Fatalf("account = %d transitions, %v bits; want 6, 12", a.Transitions, a.LeakedBits)
	}
	want := []Row{{Tenant: "alice", Transitions: 1, LeakedBits: 2}, {Tenant: "bob", Transitions: 2, LeakedBits: 4}}
	if len(a.Tenants) != len(want) || a.Tenants[0] != want[0] || a.Tenants[1] != want[1] {
		t.Fatalf("rows = %+v, want %+v", a.Tenants, want)
	}
}

// TestAccountBudgetBoundary: L = 32 bits at |R| = 4 admits exactly 16
// transitions (§9.3's dynamic_R4_E4 budget); the 17th trips both the
// session flag and the sub-budget, and the refusal names the tenant.
func TestAccountBudgetBoundary(t *testing.T) {
	l := NewLedger(4)
	for range 16 {
		l.Advance(1, active("alice"))
	}
	budgets := map[string]float64{"alice": 32}
	a := l.Snapshot()
	a.Judge(32, budgets)
	if a.LeakageExceeded || a.Tenants[0].Exceeded || a.Refusal("alice") != nil {
		t.Fatalf("account exactly at its 32-bit budget refused: %+v", a)
	}
	l.Advance(1, active("alice"))
	a = l.Snapshot()
	a.Judge(32, budgets)
	if !a.LeakageExceeded || !a.Tenants[0].Exceeded {
		t.Fatalf("34 bits not flagged over a 32-bit budget: %+v", a)
	}
	if err := a.Refusal("alice"); err == nil {
		t.Fatal("alice admitted one transition over her budget")
	}
	for _, p := range []string{"", "bob"} {
		if err := a.Refusal(p); err != nil {
			t.Errorf("unbudgeted principal %q refused: %v", p, err)
		}
	}
}

// TestAccountMerge: accounts from separate channels sum, principal by
// principal, and the sum carries no budget verdict until it is judged.
func TestAccountMerge(t *testing.T) {
	x, y := NewLedger(4), NewLedger(8)
	x.Advance(2, active("alice"))
	y.Advance(1, active("alice", "bob"))
	ya := y.Snapshot()
	ya.Judge(1, map[string]float64{"bob": 1})
	var sum Account
	sum.Merge(x.Snapshot())
	sum.Merge(ya)
	if sum.Transitions != 3 || sum.LeakedBits != 4+3 || sum.LeakageBudgetBits != 0 || sum.LeakageExceeded {
		t.Fatalf("merged account = %+v, want 3 transitions, 7 bits, unjudged", sum)
	}
	want := []Row{{Tenant: "alice", Transitions: 2, LeakedBits: 2 + 3}, {Tenant: "bob", Transitions: 1, LeakedBits: 3}}
	if len(sum.Tenants) != len(want) || sum.Tenants[0] != want[0] || sum.Tenants[1] != want[1] {
		t.Fatalf("merged rows = %+v, want %+v", sum.Tenants, want)
	}
}

// TestAccountJudgeIdleRow: a budgeted principal that was never charged
// still gets a zero row, in name order, so the whole budget table shows.
func TestAccountJudgeIdleRow(t *testing.T) {
	l := NewLedger(4)
	l.Advance(1, active("bob"))
	a := l.Snapshot()
	a.Judge(0, map[string]float64{"alice": 8, "carol": 2})
	want := []Row{
		{Tenant: "alice", BudgetBits: 8},
		{Tenant: "bob", Transitions: 1, LeakedBits: 2},
		{Tenant: "carol", BudgetBits: 2},
	}
	if len(a.Tenants) != len(want) {
		t.Fatalf("rows = %+v, want %+v", a.Tenants, want)
	}
	for i := range want {
		if a.Tenants[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, a.Tenants[i], want[i])
		}
	}
}

// TestLedgerConcurrentUse: one goroutine advances while others snapshot;
// every snapshot is self-consistent (run under -race).
func TestLedgerConcurrentUse(t *testing.T) {
	l := NewLedger(4)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				a := l.Snapshot()
				if a.LeakedBits != 2*float64(a.Transitions) {
					t.Errorf("snapshot %+v is not 2 bits per transition", a)
					return
				}
				if len(a.Tenants) == 1 && a.Tenants[0].Transitions > a.Transitions {
					t.Errorf("alice charged %d of %d transitions", a.Tenants[0].Transitions, a.Transitions)
					return
				}
			}
		}()
	}
	act := make(map[string]struct{})
	for range 200 {
		act["alice"] = struct{}{}
		l.Advance(1, act)
	}
	wg.Wait()
	if got := l.Transitions(); got != 200 {
		t.Fatalf("Transitions = %d, want 200", got)
	}
}
