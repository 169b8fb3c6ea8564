package leakage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Ledger is the service's one leakage accountant, the counter §2.1 proposes
// keeping in hardware ("track the number of traces ... and shut down the
// chip if leakage exceeds L"). Every epoch transition reveals one rate
// choice out of |R|, so the account grows by lg|R| bits per transition. The
// ledger also charges principals: every principal active in an epoch is
// charged that epoch's whole transition, because a revealed rate choice is
// revealed to every observer alike.
//
// A Ledger is safe for concurrent use: one goroutine advances it, any number
// read Snapshots.
type Ledger struct {
	numRates int

	mu          sync.Mutex
	transitions uint64
	charged     map[string]uint64
}

// NewLedger returns an empty ledger for a rate set of numRates choices. A
// ledger for |R| ≤ 1 counts transitions but charges 0 bits for them.
func NewLedger(numRates int) *Ledger {
	return &Ledger{numRates: numRates, charged: make(map[string]uint64)}
}

// Advance records that the enforcer crossed n ≥ 1 epoch boundaries. The
// account grows by n transitions, one per rate choice revealed. Every
// principal in active — those served in the epoch that just closed — is
// charged one transition, however many boundaries elapsed: the epochs after
// the first were empty, so nobody's demand fed their choices. Advance clears
// active for the next epoch.
func (l *Ledger) Advance(n int, active map[string]struct{}) {
	l.mu.Lock()
	l.transitions += uint64(n)
	for p := range active {
		l.charged[p]++
	}
	l.mu.Unlock()
	clear(active)
}

// Transitions returns the number of transitions recorded so far. It only
// grows, and every charge comes with a transition, so it dates a Snapshot.
func (l *Ledger) Transitions() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.transitions
}

// Snapshot returns the ledger's account, unjudged.
func (l *Ledger) Snapshot() Account {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := Account{Transitions: l.transitions, LeakedBits: l.bits(l.transitions)}
	for p, n := range l.charged {
		a.Tenants = append(a.Tenants, Row{Tenant: p, Transitions: n, LeakedBits: l.bits(n)})
	}
	slices.SortFunc(a.Tenants, byTenant)
	return a
}

func (l *Ledger) bits(transitions uint64) float64 {
	return float64(ORAMTimingBits(l.numRates, int(transitions)))
}

// Account is a leakage account: one ledger's Snapshot, or the sum of several
// (Merge), optionally held to budgets (Judge). The JSON names are the
// service's stats fields.
type Account struct {
	// Transitions counts the rate choices revealed and LeakedBits the bits
	// they carry: Transitions × lg|R| for one ledger, the sum for a merge.
	Transitions uint64  `json:"transitions"`
	LeakedBits  float64 `json:"leaked_bits"`
	// LeakageBudgetBits echoes the session budget Judge applied (0 = none)
	// and LeakageExceeded flags LeakedBits over it.
	LeakageBudgetBits float64 `json:"leakage_budget_bits,omitempty"`
	LeakageExceeded   bool    `json:"leakage_exceeded,omitempty"`
	// Tenants holds one row per principal, sorted by name.
	Tenants []Row `json:"tenants,omitempty"`
}

// Row is one principal's slice of an account. Transitions counts the
// transitions charged to it and LeakedBits their bits. BudgetBits echoes
// its sub-budget (0 = unbudgeted) and Exceeded flags LeakedBits over it.
// Rows do not sum to the account: two principals active in the same epoch
// are each charged its whole transition.
type Row struct {
	Tenant      string  `json:"tenant"`
	Transitions uint64  `json:"transitions"`
	LeakedBits  float64 `json:"leaked_bits"`
	BudgetBits  float64 `json:"budget_bits,omitempty"`
	Exceeded    bool    `json:"leakage_exceeded,omitempty"`
}

func byTenant(a, b Row) int { return strings.Compare(a.Tenant, b.Tenant) }

// Merge adds b's transitions, bits and principal rows into a. Separate
// channels add (§10), and so do one principal's charges on separate
// channels. Budgets and flags are not summed: Judge sets them for the sum.
func (a *Account) Merge(b Account) {
	a.Transitions += b.Transitions
	a.LeakedBits += b.LeakedBits
	rows := slices.Concat(a.Tenants, b.Tenants)
	slices.SortStableFunc(rows, byTenant)
	out := rows[:0]
	for _, r := range rows {
		if n := len(out); n > 0 && out[n-1].Tenant == r.Tenant {
			out[n-1].Transitions += r.Transitions
			out[n-1].LeakedBits += r.LeakedBits
			continue
		}
		out = append(out, Row{Tenant: r.Tenant, Transitions: r.Transitions, LeakedBits: r.LeakedBits})
	}
	a.Tenants = out
}

// Judge holds the account to a session budget and per-principal
// sub-budgets, in bits (0 or absent = none). It flags the account and every
// row over its budget, and adds a zero row for each principal the
// sub-budgets name but the account has not charged yet, so the whole budget
// table shows. Refusal then reads the verdict.
func (a *Account) Judge(budget float64, sub map[string]float64) {
	a.LeakageBudgetBits = budget
	a.LeakageExceeded = over(a.LeakedBits, budget)
	charged := a.Tenants
	for p := range sub {
		if _, ok := find(charged, p); !ok {
			a.Tenants = append(a.Tenants, Row{Tenant: p})
		}
	}
	slices.SortFunc(a.Tenants, byTenant)
	for i := range a.Tenants {
		r := &a.Tenants[i]
		r.BudgetBits = sub[r.Tenant]
		r.Exceeded = over(r.LeakedBits, r.BudgetBits)
	}
}

// Refusal returns the error that refuses principal's next operation once
// Judge found it over its sub-budget, and nil otherwise. An account exactly
// at its budget is still admitted: the budget is the most it may leak.
func (a *Account) Refusal(principal string) error {
	i, ok := find(a.Tenants, principal)
	if !ok || !a.Tenants[i].Exceeded {
		return nil
	}
	r := a.Tenants[i]
	return fmt.Errorf("tenant %q exhausted its leakage sub-budget (%.1f bits leaked, budget %.1f)",
		principal, r.LeakedBits, r.BudgetBits)
}

// find returns the index of principal's row in rows sorted by name.
func find(rows []Row, principal string) (int, bool) {
	return slices.BinarySearchFunc(rows, principal, func(r Row, p string) int {
		return strings.Compare(r.Tenant, p)
	})
}

// over is the one budget comparison: a positive budget is exceeded once
// leaked bits pass it.
func over(leaked, budget float64) bool { return budget > 0 && leaked > budget }
