package server

import (
	"flag"
	"fmt"
)

// This file is the shared CLI flag surface. cmd/oramd, cmd/loadgen and
// cmd/oramproxy used to re-declare the store and budget flags by hand,
// which is exactly how three binaries drift apart one default at a time;
// now each registers the surface through these builders and only declares
// what is genuinely its own (listen address, workload shape, node list).
// scripts/check_flags.sh keeps docs/CLI.md honest against the result.

// StoreFlagOptions customizes the shared store surface for one binary.
type StoreFlagOptions struct {
	// Note prefixes every usage string (loadgen passes "in-process: " so
	// its help text says which flags only matter without -addr).
	Note string
	// Blocks overrides the default address space (0 = 65536 — oramd's
	// serving default; loadgen passes 4096, its exercise default).
	Blocks uint64
	// Storage registers the durable-store flag group (-store, -data-dir,
	// -checkpoint-every, ...). Off for binaries that only build RAM stores.
	Storage bool
	// Per-binary usage overrides for the flags whose meaning shifts with
	// the binary (empty = the canonical text with Note prefixed).
	BlocksUsage     string
	BlockBytesUsage string
	SeedUsage       string
}

// StoreFlags is the registered store surface; call Config after fs.Parse.
type StoreFlags struct {
	fs      *flag.FlagSet
	storage bool

	shards     *int
	blocks     *uint64
	blockBytes *int
	z          *int
	queue      *int
	seed       *int64
	oram       *string
	recursion  *int
	integrity  *bool
	batchK     *int
	evictEvery *int
	hz         *uint64
	olat       *uint64
	rates      *string
	epochLen   *uint64
	growth     *uint64
	unpaced    *bool

	store     *string
	dataDir   *string
	ckptEvery *int
	cacheBkts *int
	syncPol   *string
	compactAt *int64

	// Budget is the embedded leakage-budget group, also registrable on its
	// own (NewBudgetFlags) for binaries without a store, like oramproxy.
	Budget *BudgetFlags
}

// NewStoreFlags registers the shared store surface on fs.
func NewStoreFlags(fs *flag.FlagSet, opt StoreFlagOptions) *StoreFlags {
	usage := func(override, canonical string) string {
		if override != "" {
			return override
		}
		return opt.Note + canonical
	}
	blocks := opt.Blocks
	if blocks == 0 {
		blocks = 65536
	}
	f := &StoreFlags{
		fs:         fs,
		storage:    opt.Storage,
		shards:     fs.Int("shards", 4, opt.Note+"number of independent ORAM shards"),
		blocks:     fs.Uint64("blocks", blocks, usage(opt.BlocksUsage, "total address space in blocks")),
		blockBytes: fs.Int("block-bytes", 64, usage(opt.BlockBytesUsage, "payload bytes per block")),
		z:          fs.Int("z", 3, opt.Note+"bucket capacity Z"),
		queue:      fs.Int("queue", 256, opt.Note+"per-shard request queue depth"),
		seed:       fs.Int64("seed", 1, usage(opt.SeedUsage, "deterministic construction seed")),
		oram:       fs.String("oram", "flat", opt.Note+"per-shard ORAM backend: flat | recursive | batched"),
		recursion:  fs.Int("recursion", 3, opt.Note+"position-map ORAM levels for -oram=recursive (batched defaults to 0)"),
		integrity:  fs.Bool("integrity", false, opt.Note+"Merkle-verify every level's untrusted storage"),
		batchK:     fs.Int("batch-k", 4, opt.Note+"batched: distinct blocks fetched per slot (public parameter k, also the batch_read limit)"),
		evictEvery: fs.Int("evict-every", 4, opt.Note+"batched: slots between deterministic eviction passes (public parameter K)"),
		hz:         fs.Uint64("hz", 1_000_000, opt.Note+"enforcer cycle frequency (cycles/s)"),
		olat:       fs.Uint64("olat", 15, opt.Note+"ORAM access latency in cycles"),
		rates:      fs.String("rates", "85", opt.Note+"comma-separated allowed rate set (cycles, ascending)"),
		epochLen:   fs.Uint64("epoch", 0, opt.Note+"first epoch length in cycles (0 = static rate)"),
		growth:     fs.Uint64("growth", 4, opt.Note+"epoch length growth factor"),
		unpaced:    fs.Bool("unpaced", false, opt.Note+"disable rate enforcement (no dummies; leaks timing)"),
		Budget:     NewBudgetFlags(fs, opt.Note, "session, across all shards"),
	}
	if opt.Storage {
		f.store = fs.String("store", "mem", opt.Note+"untrusted bucket storage: mem | file (file implies -integrity)")
		f.dataDir = fs.String("data-dir", "", opt.Note+"file store root directory (per-shard subdirectories; required with -store file)")
		f.ckptEvery = fs.Int("checkpoint-every", 0, opt.Note+"file store: sealed checkpoint every N served slots (0 = default 1: durable acks)")
		f.cacheBkts = fs.Int("cache-buckets", 0, opt.Note+"file store: bucket page cache size per level (0 = default 1024)")
		f.syncPol = fs.String("sync", "none", opt.Note+"file store fsync policy: none | checkpoint")
		f.compactAt = fs.Int64("delta-compact-after", 0, opt.Note+"file store: fold the checkpoint log into a fresh base.bin once its sealed records pass this many bytes (0 = default 4 MiB)")
	}
	return f
}

// Config resolves the parsed flags into a store configuration. Call after
// the flag set has parsed; the result still goes through Config.Validate
// inside New.
func (f *StoreFlags) Config() (Config, error) {
	rateSet, err := ParseRates(*f.rates)
	if err != nil {
		return Config{}, err
	}
	leakBudget, tenantBudgets, err := f.Budget.Parse()
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Shards:            *f.shards,
		Blocks:            *f.blocks,
		BlockBytes:        *f.blockBytes,
		Z:                 *f.z,
		QueueDepth:        *f.queue,
		Seed:              *f.seed,
		Backend:           *f.oram,
		Recursion:         f.effectiveRecursion(),
		Integrity:         *f.integrity,
		BatchK:            *f.batchK,
		EvictEvery:        *f.evictEvery,
		ClockHz:           *f.hz,
		ORAMLatency:       *f.olat,
		Rates:             rateSet,
		EpochFirstLen:     *f.epochLen,
		EpochGrowth:       *f.growth,
		LeakageBudgetBits: leakBudget,
		TenantBudgets:     tenantBudgets,
		Unpaced:           *f.unpaced,
	}
	if f.storage {
		cfg.Store = *f.store
		cfg.DataDir = *f.dataDir
		cfg.CheckpointEvery = *f.ckptEvery
		cfg.CacheBuckets = *f.cacheBkts
		cfg.Sync = *f.syncPol
		cfg.DeltaCompactAfter = *f.compactAt
	}
	return cfg, nil
}

// effectiveRecursion resolves the -recursion flag against the chosen
// backend. The flag's default of 3 is tuned for -oram recursive; forwarding
// it blindly would silently turn a plain `-oram batched` into a 3-level
// recursive stack, so the batched backend gets a flat position map unless
// -recursion was passed explicitly on the command line.
func (f *StoreFlags) effectiveRecursion() int {
	set := false
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "recursion" {
			set = true
		}
	})
	if *f.oram == BackendBatched && !set {
		return 0
	}
	return *f.recursion
}

// BudgetFlags is the leakage-budget flag group: the scope-wide budget and
// the per-tenant sub-budgets.
type BudgetFlags struct {
	leak    *float64
	tenants *string
}

// NewBudgetFlags registers -leak-budget and -tenant-budgets on fs; scope
// names what the budget covers in the help text ("session, across all
// shards" on a daemon, "cluster-wide, across all nodes' shards" on the
// proxy).
func NewBudgetFlags(fs *flag.FlagSet, note, scope string) *BudgetFlags {
	return &BudgetFlags{
		leak: fs.Float64("leak-budget", 0,
			fmt.Sprintf("%sleakage budget in bits, %s (0 = account only)", note, scope)),
		tenants: fs.String("tenant-budgets", "",
			note+"per-tenant leakage sub-budgets as name=bits,...: a tenant over its sub-budget is refused (code tenant_budget_exhausted) while others keep being served (empty = single-tenant)"),
	}
}

// Parse resolves the parsed budget flags.
func (b *BudgetFlags) Parse() (leakBudget float64, tenantBudgets map[string]float64, err error) {
	tenantBudgets, err = ParseTenantBudgets(*b.tenants)
	if err != nil {
		return 0, nil, err
	}
	return *b.leak, tenantBudgets, nil
}
