// Package server is the concurrent, sharded ORAM key-value service: the
// first layer of this codebase that serves real wall-clock traffic instead
// of simulated cycles. It partitions a flat block address space across N
// independent Path ORAM shards (the partitioning idea of Stefanov et al.'s
// "Towards Practical Oblivious RAM", applied for parallelism), gives each
// shard its own goroutine, request queue and rate enforcer, and exposes one
// batching front end, Do, beside Stats.
//
// Security model, inherited from the paper's memory controller:
//
//   - Each shard issues ORAM accesses on a fixed slot grid driven by a
//     core.Enforcer through a wall-clock adapter. When no request is queued
//     at a slot, the shard performs an indistinguishable dummy access, so
//     per-shard bus traffic is data-independent (up to the enforcer's
//     bounded epoch-boundary leakage when a dynamic schedule is used).
//   - Routing is a deterministic, data-independent function of the block
//     address (addr mod shards), so which shard serves a request reveals
//     nothing beyond the address stream the ORAM already hides.
//   - In-flight requests to the same block coalesce into one access, which
//     reduces queueing without changing the observable slot grid.
//
// The Unpaced mode disables the enforcer (slots fire as fast as requests
// arrive, no dummies) — the base_oram configuration of §9.1.6, kept for
// capacity benchmarking; it leaks timing exactly the way the paper's
// unshielded baseline does.
package server

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tcoram/internal/core"
	"tcoram/internal/crypt"
	"tcoram/internal/leakage"
	"tcoram/internal/pathoram"
)

// ErrClosed is returned for requests submitted to (or pending in) a store
// that has been closed. It is a coded *Error (CodeStoreClosed) so the
// condition survives the wire as a machine-readable code; compare with
// errors.Is as before.
var ErrClosed error = &Error{Code: CodeStoreClosed, Msg: "server: store closed"}

// Store selector values for Config.Store.
const (
	// StoreMem keeps each shard's bucket tree in RAM (the untrusted-DRAM
	// model of the paper): fastest, nothing survives the process.
	StoreMem = "mem"
	// StoreFile keeps each shard's bucket tree in fixed-offset files under
	// Config.DataDir, with an LRU page cache, sealed trusted-state
	// checkpoints and fail-closed crash recovery.
	StoreFile = "file"
)

// Config describes a sharded ORAM store.
type Config struct {
	// Shards is the number of independent sub-ORAMs (default 4).
	Shards int
	// Blocks is the total address space in blocks (default 4096).
	Blocks uint64
	// BlockBytes is the payload size of one block (default 64, the paper's
	// cache-line-sized data block).
	BlockBytes int
	// Z is the bucket capacity (default 3, per the paper).
	Z int
	// QueueDepth bounds each shard's pending-request queue; submitters
	// block when it is full (default 256).
	QueueDepth int
	// Backend names the preset every shard's ORAM stack is built from:
	// BackendFlat (default — the whole position map in the controller),
	// BackendRecursive (the paper's §9.1.2 recursion, for address spaces
	// whose flat position map would not fit on-chip) or BackendBatched
	// (multi-path slots with deferred eviction).
	Backend string
	// Recursion is the number of position-map ORAM levels under
	// BackendRecursive (default 3, the paper's stack) and BackendBatched
	// (default 0); ignored for flat.
	Recursion int
	// BatchK is the number of blocks a BackendBatched shard may serve per
	// slot via multi-path fetch; every slot reads exactly BatchK data
	// paths, real or dummy (default 4; ignored for other backends). A
	// public parameter of the schedule, like Rates.
	BatchK int
	// EvictEvery is the slot period of the batched backend's deterministic
	// background eviction pass (default 4; ignored for other backends).
	// Public, like BatchK.
	EvictEvery int
	// TraceSlots records a pathoram.SlotSig per served slot on every batched
	// shard (Backend must be BackendBatched), retrievable with SlotTraces
	// after Close. A test-and-audit hook: the traces are the adversary's view
	// of each shard's storage schedule, used to verify that observable slot
	// signatures are independent of what the slots carried (dummy vs real vs
	// migration traffic). Off by default — tracing grows memory without
	// bound.
	TraceSlots bool
	// Integrity attaches Merkle verification ([25], §4.3) to every level of
	// every shard's untrusted storage: tampered buckets fail the next path
	// read instead of decrypting to garbage.
	Integrity bool
	// Key encrypts all shards (zero value is acceptable for tests).
	Key crypt.Key
	// Seed drives the deterministic per-shard RNG streams (default 1).
	Seed int64

	// Store selects the untrusted bucket storage: StoreMem (default — the
	// in-RAM ByteStorage the service has always used) or StoreFile (durable
	// per-shard bucket files under DataDir, with crash recovery from sealed
	// checkpoints). The file store implies Integrity: checkpoints bind the
	// untrusted files to Merkle roots, so the tree is always built.
	Store string
	// DataDir is the root directory of the file store; each shard keeps its
	// bucket files and checkpoint in DataDir/shard-NNNN. Required for (and
	// only meaningful with) StoreFile.
	DataDir string
	// CheckpointEvery is the cadence, in slots (real or dummy alike, so the
	// disk is written on the public grid), of sealed trusted-state
	// checkpoints. 1 (default) checkpoints before acknowledging each slot's
	// requests, making every ack durable; larger values trade an at-risk
	// window (covered by cluster replication) for throughput.
	CheckpointEvery int
	// CacheBuckets bounds each level's in-RAM bucket page cache for the
	// file store (default 1024 buckets per level).
	CacheBuckets int
	// Sync is the file store's fsync policy: "none" (default — crash
	// consistency against process death, not power loss) or "checkpoint"
	// (fsync at checkpoint boundaries).
	Sync string
	// DeltaCompactAfter folds the checkpoint log into a fresh base.bin once
	// the log's sealed records pass this many bytes (default 4 MiB). Bounds
	// recovery replay and log storage.
	DeltaCompactAfter int64

	// ClockHz is the wall-clock frequency of the enforcer's cycle domain in
	// cycles per second (default 1_000_000: one cycle per microsecond).
	ClockHz uint64
	// ORAMLatency is OLAT in cycles (default 15 ≈ the software access cost
	// at the default clock).
	ORAMLatency uint64
	// Rates is the allowed rate set R in cycles, ascending. Default
	// {85}: a static 100 µs slot period (rate + OLAT) per shard.
	Rates []uint64
	// InitialRate is the epoch-0 rate (default: last element of Rates).
	InitialRate uint64
	// EpochFirstLen and EpochGrowth enable the paper's dynamic epoch
	// schedule when EpochFirstLen > 0; zero values mean a static rate.
	EpochFirstLen uint64
	EpochGrowth   uint64

	// LeakageBudgetBits is the session's ORAM-timing-channel leakage budget
	// in bits, accounted across all shards (each epoch transition on each
	// shard reveals one lg|R|-bit rate choice). Zero means no budget: the
	// store still reports cumulative leaked bits, it just never flags an
	// overrun. The budget is a monitoring boundary, not an enforcement stop
	// — Stats reports LeakageExceeded and operators decide (the paper's
	// "shut down the chip" policy belongs to them).
	LeakageBudgetBits float64

	// TenantBudgets assigns per-tenant leakage sub-budgets in bits
	// (tenant name → bits). Unlike the store-wide budget, tenant
	// sub-budgets are enforced: once the leakage attributed to a budgeted
	// tenant's activity exceeds its sub-budget, that tenant's new ops are
	// refused with CodeTenantBudget while every other tenant keeps being
	// served. Tenants absent from the map (and the empty tenant) are
	// accounted but never refused. Nil means single-tenant operation.
	TenantBudgets map[string]float64

	// Unpaced disables rate enforcement entirely (no slot grid, no
	// dummies): the unshielded base_oram mode, for capacity measurement.
	Unpaced bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Blocks == 0 {
		c.Blocks = 4096
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 64
	}
	if c.Z == 0 {
		c.Z = 3
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Backend == "" {
		c.Backend = BackendFlat
	}
	if c.Backend == BackendRecursive && c.Recursion == 0 {
		c.Recursion = 3
	}
	if c.Backend == BackendBatched {
		if c.BatchK == 0 {
			c.BatchK = 4
		}
		if c.EvictEvery == 0 {
			c.EvictEvery = 4
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Store == "" {
		c.Store = StoreMem
	}
	if c.Store == StoreFile {
		// The Merkle roots are what checkpoints bind the untrusted bucket
		// files to; a file-backed shard without them could not detect
		// offline tampering, so the tree is not optional.
		c.Integrity = true
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 1
		}
		if c.CacheBuckets == 0 {
			c.CacheBuckets = 1024
		}
		if c.Sync == "" {
			c.Sync = "none"
		}
		if c.DeltaCompactAfter == 0 {
			c.DeltaCompactAfter = 4 << 20
		}
	}
	if c.ClockHz == 0 {
		c.ClockHz = 1_000_000
	}
	if c.ORAMLatency == 0 {
		c.ORAMLatency = 15
	}
	if len(c.Rates) == 0 {
		c.Rates = []uint64{85}
	}
	if c.InitialRate == 0 {
		c.InitialRate = c.Rates[len(c.Rates)-1]
	}
	if c.EpochFirstLen > 0 && c.EpochGrowth == 0 {
		c.EpochGrowth = 4
	}
	return c
}

// DefaultMaxBatch is the batch_read address limit for backends without a
// native per-slot batch capacity: the batch still saves round trips, it
// just rides one slot per member.
const DefaultMaxBatch = 16

// MaxBatch is the store's public batch_read limit: the batched backend's
// per-slot capacity BatchK (so one client batch rides one slot where
// possible), DefaultMaxBatch otherwise. Like BatchK and Rates it is a
// public parameter of the serving schedule.
func (c Config) MaxBatch() int {
	if c.Backend == BackendBatched && c.BatchK > 0 {
		return c.BatchK
	}
	return DefaultMaxBatch
}

// Validate reports whether the configuration is usable, including every
// enforcer-facing field: New fails fast with a "server:" error naming the
// bad field instead of surfacing a core error from deep inside shard
// construction.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("server: Shards must be positive, got %d", c.Shards)
	}
	if c.Blocks == 0 {
		return fmt.Errorf("server: Blocks must be positive")
	}
	if c.BlockBytes < 1 {
		return fmt.Errorf("server: BlockBytes must be positive")
	}
	// The longest frame the store can exchange — a full-block write, or a
	// MaxBatch-address batch response — must fit the wire, or full batches
	// would surface as dropped connections at runtime instead of a config
	// error here.
	if k, n := c.MaxBatch(), worstFrameBytes(c.MaxBatch(), c.BlockBytes); n > maxFrameBytes {
		return fmt.Errorf("server: %d-address batches of %d-byte blocks need %d-byte frames, above the wire protocol's %d-byte limit — lower BatchK or BlockBytes",
			k, c.BlockBytes, n, maxFrameBytes)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: QueueDepth must not be negative, got %d", c.QueueDepth)
	}
	switch c.Backend {
	case "", BackendFlat, BackendRecursive, BackendBatched:
	default:
		return fmt.Errorf("server: unknown Backend %q (want %q, %q or %q)", c.Backend, BackendFlat, BackendRecursive, BackendBatched)
	}
	// Z == 0 means the caller validates before applying defaults: the stack
	// has no shape yet, and the defaulted config re-validates inside New.
	if c.Z != 0 {
		if err := c.stackConfig().Validate(); err != nil {
			return fmt.Errorf("server: Backend %q: %w", c.Backend, err)
		}
	}
	if c.TraceSlots && c.Backend != BackendBatched {
		return fmt.Errorf("server: TraceSlots requires Backend %q, got %q", BackendBatched, c.Backend)
	}
	switch c.Store {
	case "", StoreMem:
		if c.DataDir != "" {
			return fmt.Errorf("server: DataDir is set but Store is %q — set Store %q to use it", StoreMem, StoreFile)
		}
		if c.CheckpointEvery != 0 {
			return fmt.Errorf("server: CheckpointEvery requires Store %q", StoreFile)
		}
		if c.CacheBuckets != 0 {
			return fmt.Errorf("server: CacheBuckets requires Store %q", StoreFile)
		}
		// "none" stays legal: it is the -sync flag's default, which oramd
		// copies into every config.
		if c.Sync != "" && c.Sync != "none" {
			return fmt.Errorf("server: Sync %q requires Store %q", c.Sync, StoreFile)
		}
		if c.DeltaCompactAfter != 0 {
			return fmt.Errorf("server: DeltaCompactAfter requires Store %q", StoreFile)
		}
		// The RAM store backs each tree with one contiguous allocation; the
		// cap that used to be a constructor panic is rejected here with an
		// actionable error instead of surfacing from shard construction.
		if c.Z == 0 {
			break // no shape yet, as above
		}
		for i, g := range c.stackConfig().Geometries() {
			if g.TreeBytes() > pathoram.MaxByteStorage {
				return fmt.Errorf("server: level %d bucket tree needs %d bytes, above the RAM store's %d-byte cap — use Store %q with a DataDir",
					i, g.TreeBytes(), uint64(pathoram.MaxByteStorage), StoreFile)
			}
		}
	case StoreFile:
		if c.DataDir == "" {
			return fmt.Errorf("server: Store %q requires a DataDir", StoreFile)
		}
		if c.CheckpointEvery < 0 {
			return fmt.Errorf("server: CheckpointEvery must not be negative, got %d", c.CheckpointEvery)
		}
		if c.CacheBuckets < 0 {
			return fmt.Errorf("server: CacheBuckets must not be negative, got %d", c.CacheBuckets)
		}
		if _, err := pathoram.ParseSyncPolicy(c.Sync); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if c.DeltaCompactAfter < 0 {
			return fmt.Errorf("server: DeltaCompactAfter must not be negative, got %d", c.DeltaCompactAfter)
		}
	default:
		return fmt.Errorf("server: unknown Store %q (want %q or %q)", c.Store, StoreMem, StoreFile)
	}
	if c.LeakageBudgetBits < 0 {
		return fmt.Errorf("server: LeakageBudgetBits must not be negative, got %v", c.LeakageBudgetBits)
	}
	for name, bits := range c.TenantBudgets {
		if name == "" {
			return fmt.Errorf("server: TenantBudgets names the empty tenant")
		}
		if bits < 0 {
			return fmt.Errorf("server: TenantBudgets[%q] must not be negative, got %v", name, bits)
		}
	}
	if c.Unpaced {
		return nil // the enforcer stack is never built
	}
	if c.ClockHz == 0 || c.ClockHz > 1_000_000_000 {
		return fmt.Errorf("server: ClockHz must be in [1, 1e9], got %d", c.ClockHz)
	}
	if c.ORAMLatency == 0 {
		return fmt.Errorf("server: ORAMLatency must be positive")
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf("server: empty rate set")
	}
	for i := 1; i < len(c.Rates); i++ {
		if c.Rates[i] <= c.Rates[i-1] {
			return fmt.Errorf("server: Rates must be strictly ascending, got %v", c.Rates)
		}
	}
	// The core enforcer permits an off-set initial rate (the paper allows
	// any epoch-0 value), but the service's leakage accounting charges every
	// revealed rate as one of |R| choices — an operator-supplied rate
	// outside R would make the observable schedule carry more than the
	// lg|R| bits per transition the account claims. Zero means "default to
	// the slowest rate" (withDefaults), which is always a member.
	if c.InitialRate != 0 {
		member := false
		for _, r := range c.Rates {
			if r == c.InitialRate {
				member = true
				break
			}
		}
		if !member {
			return fmt.Errorf("server: InitialRate %d is not in Rates %v", c.InitialRate, c.Rates)
		}
	}
	if c.EpochFirstLen > 0 && c.EpochGrowth < 2 {
		return fmt.Errorf("server: EpochGrowth must be ≥ 2 for a dynamic schedule, got %d", c.EpochGrowth)
	}
	return nil
}

// Store is the sharded concurrent ORAM key-value service. All exported
// methods are safe for concurrent use.
type Store struct {
	cfg    Config
	shards []*shard
	// admit is the judged account Do admits budgeted tenants against (see
	// admission).
	admit atomic.Pointer[leakage.Account]

	// free recycles Do's submissions (see submission). It has room for one
	// per queue slot across the shards, the most requests that can wait in
	// the queues at once.
	free chan *submission

	mu     sync.RWMutex // guards closed against in-flight submits
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New builds a store and starts one serving goroutine per shard. The
// returned store is serving immediately; paced shards begin emitting dummy
// accesses on their slot grid even before the first request arrives.
func New(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every stack is built before any enforcer: an enforcer's clock starts
	// when it is built, and a shard whose clock ran while its neighbours'
	// trees were still being initialized would begin life behind its grid.
	stacks := make([]*pathoram.Stack, cfg.Shards)
	persisters := make([]*persister, cfg.Shards)
	fail := func(err error) (*Store, error) {
		for _, p := range persisters {
			if p != nil {
				p.closeStores()
			}
		}
		return nil, err
	}
	for i := range stacks {
		var err error
		if stacks[i], persisters[i], err = newStack(cfg, i); err != nil {
			return fail(err)
		}
	}
	st := &Store{cfg: cfg, stop: make(chan struct{}), free: make(chan *submission, cfg.Shards*cfg.QueueDepth)}
	for i, o := range stacks {
		sh, err := newShard(i, o, persisters[i], cfg, st.stop)
		if err != nil {
			return fail(err)
		}
		st.shards = append(st.shards, sh)
	}
	for _, sh := range st.shards {
		st.wg.Add(1)
		go func(sh *shard) {
			defer st.wg.Done()
			sh.run()
		}(sh)
	}
	return st, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// ShardOf returns the shard serving addr: a deterministic,
// data-independent routing function. Modulo routing spreads sequential
// scans round-robin across shards, which keeps per-shard load flat for
// every scenario the load generator ships.
func (s *Store) ShardOf(addr uint64) int {
	return int(addr % uint64(s.cfg.Shards))
}

// localAddr converts a global block address to the shard-local one.
func (s *Store) localAddr(addr uint64) uint64 {
	return addr / uint64(s.cfg.Shards)
}

// Do serves one submission. Every member is enqueued under one closed-check,
// so a batch is atomic against Close, and same-shard members land
// contiguously in that shard's queue, which is what lets takeBatch lift
// them into one slot (on the batched backend a whole client batch rides one
// multi-path slot where its addresses share a shard). An oversized payload
// or an out-of-range address fails only its own op. Do blocks until a slot
// has served every member.
//
// Do borrows each op's Data until it returns, so a Do with reused ops
// allocates nothing: a write's payload is zero-padded into the block by the
// slot itself, and a read's block lands in Data[:BlockBytes] when Data has
// the capacity, in a buffer Do allocates before enqueueing otherwise.
func (s *Store) Do(tenant string, ops []Op) error {
	if err := CheckOps(ops, s.cfg.MaxBatch()); err != nil {
		return err
	}
	if s.cfg.TenantBudgets[tenant] > 0 { // only a budgeted tenant can be refused
		if err := s.admission().Refusal(tenant); err != nil {
			return &Error{Code: CodeTenantBudget, Msg: "server: " + err.Error()}
		}
	}
	sub := s.takeSubmission(len(ops))
	defer s.putSubmission(sub)
	reqs := sub.reqs[:len(ops)]
	for i, req := range reqs {
		op := &ops[i]
		switch {
		case op.Write && len(op.Data) > s.cfg.BlockBytes:
			op.Err = Errorf(CodeOversized, "server: payload is %d bytes, block is %d", len(op.Data), s.cfg.BlockBytes)
			continue
		case op.Addr >= s.cfg.Blocks:
			op.Err = Errorf(CodeOutOfRange, "server: address %d out of range (%d blocks)", op.Addr, s.cfg.Blocks)
			continue
		}
		req.addr, req.local, req.write, req.tenant, req.live = op.Addr, s.localAddr(op.Addr), op.Write, tenant, true
		req.data = op.Data
		if !op.Write {
			if cap(op.Data) < s.cfg.BlockBytes {
				req.data = make([]byte, s.cfg.BlockBytes)
			}
			req.data = req.data[:s.cfg.BlockBytes]
		}
		req.arrival = 0
		if sh := s.shards[s.ShardOf(op.Addr)]; sh.enf != nil {
			req.arrival = sh.enf.Now()
		}
	}
	// The closed check and the enqueue happen under the read lock so Close
	// cannot declare the queues drained while a submission is in flight.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	for _, req := range reqs {
		if req.live {
			sh := s.shards[s.ShardOf(req.addr)]
			sh.depth.Add(1)
			sh.queue <- req
		}
	}
	s.mu.RUnlock()
	for i, req := range reqs {
		if !req.live {
			continue
		}
		ops[i].Err = <-req.resp
		if !ops[i].Write {
			ops[i].Data = nil
			if ops[i].Err == nil {
				ops[i].Data = req.data
			}
		}
	}
	return nil
}

// submission is one Do call's requests. Its requests, their reply channels
// included, are reused by every Do that takes it from the store's free
// list: a buffered channel rather than a sync.Pool, which drops a random
// share of its Puts under the race detector and would make the serve
// path's allocation count depend on the build.
type submission struct{ reqs []*request }

// takeSubmission takes a submission with at least n requests from the free
// list, or builds one when the list is empty.
func (s *Store) takeSubmission(n int) *submission {
	var sub *submission
	select {
	case sub = <-s.free:
	default:
		sub = new(submission)
	}
	for len(sub.reqs) < n {
		sub.reqs = append(sub.reqs, &request{resp: make(chan error, 1)})
	}
	return sub
}

// putSubmission returns sub to the free list once every request it
// enqueued has completed, dropping the borrowed buffers so the list pins no
// caller memory; a full list lets sub go to the collector.
func (s *Store) putSubmission(sub *submission) {
	for _, req := range sub.reqs {
		req.data, req.tenant, req.live = nil, "", false
	}
	select {
	case s.free <- sub:
	default:
	}
}

// Read returns a copy of the block's contents (zeroes if never written).
func (s *Store) Read(addr uint64) ([]byte, error) { return s.TenantRead("", addr) }

// Write stores data into the block (zero-padded to BlockBytes).
func (s *Store) Write(addr uint64, data []byte) error { return s.TenantWrite("", addr, data) }

// TenantRead is a one-read Do.
func (s *Store) TenantRead(tenant string, addr uint64) ([]byte, error) {
	ops := [1]Op{{Addr: addr}}
	err := s.Do(tenant, ops[:])
	return ops[0].Data, cmp.Or(err, ops[0].Err)
}

// TenantWrite is a one-write Do.
func (s *Store) TenantWrite(tenant string, addr uint64, data []byte) error {
	ops := [1]Op{{Addr: addr, Write: true, Data: data}}
	err := s.Do(tenant, ops[:])
	return cmp.Or(err, ops[0].Err)
}

// ReadBatch is a batch-of-reads Do with index-aligned results.
func (s *Store) ReadBatch(tenant string, addrs []uint64) ([]BatchResult, error) {
	return ReadBatchVia(s, tenant, addrs)
}

// admission returns the store's judged account as of the shard ledgers'
// current state, so a tenant's refusal begins with its first op after the
// budget-crossing epoch transition. The ledgers' summed transitions date the
// cached account, which is rebuilt only after an epoch boundary.
func (s *Store) admission() *leakage.Account {
	var n uint64
	for _, sh := range s.shards {
		n += sh.ledger.Transitions()
	}
	if a := s.admit.Load(); a != nil && a.Transitions == n {
		return a
	}
	a := s.Stats().Account
	s.admit.Store(&a)
	return &a
}

// Stats returns a snapshot of per-shard activity, including the store's
// leakage account: the shard ledgers merged and judged against the
// configured session budget and tenant sub-budgets.
func (s *Store) Stats() Stats {
	st := Stats{
		Shards:     make([]ShardStats, len(s.shards)),
		Blocks:     s.cfg.Blocks,
		BlockBytes: s.cfg.BlockBytes,
	}
	for i, sh := range s.shards {
		var acct leakage.Account
		st.Shards[i], acct = sh.stats()
		st.Account.Merge(acct)
	}
	st.Account.Judge(s.cfg.LeakageBudgetBits, s.cfg.TenantBudgets)
	return st
}

// ServiceStats adapts Stats to the daemon's Service interface (a local
// snapshot cannot fail).
func (s *Store) ServiceStats() (Stats, error) { return s.Stats(), nil }

// SlotTraces returns each shard's recorded slot-signature trace, indexed by
// shard, when the store was built with TraceSlots (nil entries otherwise).
// Only valid after Close: the traces are owned by the shard goroutines
// while the store is serving.
func (s *Store) SlotTraces() [][]pathoram.SlotSig {
	out := make([][]pathoram.SlotSig, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.oram.SlotTrace
	}
	return out
}

// Close stops all shard goroutines, fails any still-queued requests with
// ErrClosed, and returns once every goroutine has exited. Close is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	// No submitter can be mid-enqueue now (closed was set under the write
	// lock), so draining what remains is race-free.
	for _, sh := range s.shards {
		sh.drain()
	}
	return nil
}

// Stats aggregates the per-shard counters the service exposes.
type Stats struct {
	Shards     []ShardStats `json:"shards"`
	Blocks     uint64       `json:"blocks"`
	BlockBytes int          `json:"block_bytes"`
	// Account is the ORAM-timing-channel leakage account across all shards
	// (or, aggregated by a routing proxy, all nodes): transitions, leaked
	// bits, the session budget and its trip flag, and one row per tenant.
	// One tenant tripping its sub-budget never spends another's — see
	// docs/LEAKAGE.md for what the attribution does and does not compose to.
	leakage.Account

	// Cluster routing metadata, populated only when the stats were
	// aggregated by a routing proxy (internal/cluster). RoutingEpoch and
	// MapFingerprint identify the node map that served this session — a
	// client that recorded them can detect a proxy restarted over a drifted
	// topology. Replicas is the replication factor K; MigrationActive and
	// MigrationWatermark report rebalance progress (addresses below the
	// watermark have moved to the current epoch's topology); Nodes carries
	// per-node health.
	RoutingEpoch       uint64       `json:"routing_epoch,omitempty"`
	MapFingerprint     string       `json:"map_fingerprint,omitempty"`
	Replicas           int          `json:"replicas,omitempty"`
	MigrationActive    bool         `json:"migration_active,omitempty"`
	MigrationWatermark uint64       `json:"migration_watermark,omitempty"`
	Nodes              []NodeStatus `json:"nodes,omitempty"`
}

// TenantStat is one tenant's row of the leakage account. Once Exceeded,
// the store refuses the tenant's new ops with CodeTenantBudget.
type TenantStat = leakage.Row

// NodeStatus is one cluster node's health record as seen by the routing
// proxy: whether it is currently in the serving pool, and the cumulative
// counts of ejections (healthy→unhealthy transitions), failovers (reads this
// node should have served as primary but a successor replica answered), and
// replica write misses (writes acked by the cluster that this node did not
// apply — the measure of how stale it is if it rejoins). Defined here rather
// than in internal/cluster so it can ride inside Stats over the wire.
type NodeStatus struct {
	// Node is the node's index in the current map; retiring nodes of a
	// previous topology appear with negative indices during a migration.
	Node               int    `json:"node"`
	Addr               string `json:"addr"`
	Healthy            bool   `json:"healthy"`
	Ejections          uint64 `json:"ejections,omitempty"`
	Failovers          uint64 `json:"failovers,omitempty"`
	ReplicaWriteMisses uint64 `json:"replica_write_misses,omitempty"`
	LastError          string `json:"last_error,omitempty"`
}

// ShardStats is one shard's activity snapshot.
type ShardStats struct {
	Shard int `json:"shard"`
	// Node identifies which cluster node this shard lives on when the stats
	// were aggregated by a routing proxy (internal/cluster); a single daemon
	// always reports 0. (Node, Shard) is the cluster-unique shard identity.
	Node int `json:"node,omitempty"`
	// Queue is the number of requests submitted but not yet completed.
	Queue int `json:"queue"`
	// RealAccesses and DummyAccesses count issued ORAM accesses by kind;
	// their ratio is the paper's dummy-fraction metric observed on live
	// traffic.
	RealAccesses  uint64 `json:"real_accesses"`
	DummyAccesses uint64 `json:"dummy_accesses"`
	// Coalesced counts requests that were absorbed into another request's
	// access (same block, in flight together).
	Coalesced uint64 `json:"coalesced"`
	// BatchFetched counts distinct blocks served: per real slot it can
	// reach the configured BatchK under BackendBatched, and is exactly 1
	// under the one-block-per-slot presets.
	BatchFetched uint64 `json:"batch_fetched,omitempty"`
	// ForcedEvictions counts eviction passes a batched shard ran early
	// because its stash hit the high-water mark — deviations from the
	// fixed eviction cadence, surfaced for monitoring.
	ForcedEvictions uint64 `json:"forced_evictions,omitempty"`
	// Rate and Epoch mirror the shard enforcer's public state (zero in
	// Unpaced mode).
	Rate  uint64 `json:"rate"`
	Epoch int    `json:"epoch"`
	// RateChanges is the shard enforcer's epoch-transition history — exactly
	// the information the timing channel has revealed (its length, minus the
	// epoch-0 entry, times lg|R| is LeakedBits). Nil in Unpaced mode.
	RateChanges []core.RateChange `json:"rate_changes,omitempty"`
	// LeakedBits is this shard's share of the store's leakage account.
	LeakedBits float64 `json:"leaked_bits"`
	// TenantTransitions attributes this shard's epoch transitions to the
	// tenants active when each fired: tenant name → transitions charged.
	// Every tenant with queued traffic in the transition's epoch is charged
	// the full transition (the rate choice is revealed to each of them
	// alike). Untenanted traffic is not tracked here.
	TenantTransitions map[string]uint64 `json:"tenant_transitions,omitempty"`
	// OverdueSlots counts slots this shard issued at least one full period
	// behind the wall clock (the pacing loop's back-to-back catch-up mode);
	// MaxLagCycles is the worst such lag observed. Nonzero values mean the
	// host could not hold the schedule — a software-only failure mode that
	// hardware enforcers do not have, surfaced here for monitoring.
	OverdueSlots uint64 `json:"overdue_slots"`
	MaxLagCycles uint64 `json:"max_lag_cycles"`
	// StashPeak is the largest stash occupancy the shard has seen: the sum
	// of per-level peaks (what an on-chip stash SRAM would have to
	// provision).
	StashPeak int `json:"stash_peak"`
	// StashPeaks breaks StashPeak down by ORAM level: index 0 is the data
	// ORAM, deeper indices successively smaller position-map ORAMs; a
	// single level under the flat preset.
	StashPeaks []int `json:"stash_peaks,omitempty"`
	// Failed reports that the shard's ORAM hit an unrecoverable error and
	// the shard now rejects all requests (monitoring hook).
	Failed bool `json:"failed,omitempty"`
	// Store-tier counters, populated only for file-backed shards.
	// CacheHits/CacheMisses count bucket page cache lookups; FileReads and
	// FileWrites count bucket-sized file IOs; Checkpoints counts sealed
	// trusted-state checkpoints written, CheckpointBytes the total sealed
	// bytes they wrote and CheckpointNS the total wall time they took —
	// together they make full-vs-delta amortization visible (delta mode
	// writes O(dirty) bytes per checkpoint instead of O(state)). Recovery
	// reports the shard's boot outcome: "fresh" (new data dir) or
	// "recovered" (rebuilt from a checkpoint after a restart).
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	FileReads   uint64 `json:"file_reads,omitempty"`
	FileWrites  uint64 `json:"file_writes,omitempty"`
	// MMapReads is always 0: every bucket read goes through the page
	// cache. It remains so existing readers keep compiling.
	MMapReads       uint64 `json:"mmap_reads,omitempty"`
	Checkpoints     uint64 `json:"checkpoints,omitempty"`
	CheckpointBytes uint64 `json:"checkpoint_bytes,omitempty"`
	CheckpointNS    uint64 `json:"checkpoint_ns,omitempty"`
	Recovery        string `json:"recovery,omitempty"`
}

// Totals sums access counts across shards.
func (s Stats) Totals() (real, dummy, coalesced uint64) {
	for _, sh := range s.Shards {
		real += sh.RealAccesses
		dummy += sh.DummyAccesses
		coalesced += sh.Coalesced
	}
	return
}

// Slip sums the grid-slip counters across shards: total overdue slots and
// the worst per-shard lag in cycles.
func (s Stats) Slip() (overdueSlots, maxLagCycles uint64) {
	for _, sh := range s.Shards {
		overdueSlots += sh.OverdueSlots
		if sh.MaxLagCycles > maxLagCycles {
			maxLagCycles = sh.MaxLagCycles
		}
	}
	return
}

// LeakageSummary renders the session's leakage account as the one-line
// summary both CLIs print at shutdown.
func (s Stats) LeakageSummary() string {
	budget := "no budget"
	if s.LeakageBudgetBits > 0 {
		budget = fmt.Sprintf("budget %.1f", s.LeakageBudgetBits)
		if s.LeakageExceeded {
			budget += " EXCEEDED"
		}
	}
	return fmt.Sprintf("timing channel leaked %.1f bits over %d epoch transitions (%s)",
		s.LeakedBits, s.Transitions, budget)
}

// SlipWarning renders the grid-slip warning line, or ok=false when the
// grid never slipped.
func (s Stats) SlipWarning() (warning string, ok bool) {
	overdue, lag := s.Slip()
	if overdue == 0 {
		return "", false
	}
	return fmt.Sprintf("WARNING: %d slots issued ≥ 1 period late (max lag %d cycles) — host could not hold the slot grid",
		overdue, lag), true
}

// DummyFraction is the observed share of accesses that were dummies.
func (s Stats) DummyFraction() float64 {
	real, dummy, _ := s.Totals()
	if real+dummy == 0 {
		return 0
	}
	return float64(dummy) / float64(real+dummy)
}

// ParseRates parses a comma-separated rate set ("45,195,495") into the
// ascending cycle values Config.Rates expects — the flag format shared by
// cmd/oramd and cmd/loadgen. Order and emptiness are left to Validate so
// every misconfiguration surfaces through one error path.
func ParseRates(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: bad rate %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("server: empty rate set")
	}
	return out, nil
}

// ParseTenantBudgets parses the -tenant-budgets flag format
// ("alice=32,bob=64": tenant name = sub-budget bits) shared by cmd/oramd
// and cmd/oramproxy. Empty input means no sub-budgets (nil map).
func ParseTenantBudgets(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("server: bad tenant budget %q (want name=bits)", part)
		}
		bits, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("server: bad tenant budget %q: %v", part, err)
		}
		if bits < 0 {
			return nil, fmt.Errorf("server: tenant %q budget must not be negative, got %v", name, bits)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("server: tenant %q budgeted twice", name)
		}
		out[name] = bits
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("server: empty tenant budget list")
	}
	return out, nil
}

// enforcerFor builds the per-shard enforcer stack from the store config, or
// nil in Unpaced mode.
func enforcerFor(cfg Config) (*core.WallEnforcer, error) {
	if cfg.Unpaced {
		return nil, nil
	}
	ecfg := core.EnforcerConfig{
		ORAMLatency: cfg.ORAMLatency,
		Rates:       cfg.Rates,
		InitialRate: cfg.InitialRate,
	}
	if cfg.EpochFirstLen > 0 {
		ecfg.Schedule = core.EpochSchedule{FirstLen: cfg.EpochFirstLen, Growth: cfg.EpochGrowth}
	}
	e, err := core.NewEnforcer(ecfg)
	if err != nil {
		return nil, err
	}
	clock, err := core.NewCycleClock(cfg.ClockHz)
	if err != nil {
		return nil, err
	}
	return core.NewWallEnforcer(e, clock), nil
}
