package server

import (
	"sync/atomic"
	"time"

	"tcoram/internal/core"
	"tcoram/internal/leakage"
	"tcoram/internal/pathoram"
)

// request is one op of a Do submission, in shard-local terms. Requests
// live in the store's submission free list and are reused from one Do to
// the next, so the shard must read nothing from a request after complete
// has sent its outcome: from that moment the submitter may recycle it.
type request struct {
	addr  uint64 // global address (routes the request to its shard)
	local uint64 // shard-local block address
	write bool
	// data is the op's Data, borrowed until the request completes: a
	// write's payload (at most BlockBytes; the slot zero-pads it into the
	// block), or the BlockBytes-long buffer a read's block is copied into.
	data    []byte
	arrival uint64     // enforcer cycle at submission (paced mode)
	tenant  string     // leakage-accounting tag ("" = untenanted)
	live    bool       // enqueued by the current submission
	resp    chan error // buffer 1, kept for the request's whole life
}

// shard owns one sub-ORAM. Exactly one goroutine (run) touches the ORAM and
// the enforcer's slot-consuming side; every cross-goroutine quantity is an
// atomic. The pacing loop realizes the paper's controller in wall time:
// sleep until the next slot of the data-independent grid opens, then serve
// the head of the queue (up to BatchK blocks, coalescing same-block
// requests) or issue a dummy slot.
type shard struct {
	id    int
	oram  *pathoram.Stack    // the shard's stack, whatever the preset; owned exclusively by the run goroutine
	enf   *core.WallEnforcer // nil in Unpaced mode
	queue chan *request
	fifo  []*request // drained requests awaiting slots (loop-private)
	stop  chan struct{}

	// Cross-goroutine stats.
	reals        atomic.Uint64
	dummies      atomic.Uint64
	coalesced    atomic.Uint64
	batchFetched atomic.Uint64
	forcedEvict  atomic.Uint64
	depth        atomic.Int64 // submitted but not yet completed
	stashPeak    atomic.Int64
	// levelPeaks publishes the per-level stash peaks (index 0 = data ORAM;
	// one entry under the flat preset), one atomic per level, so a new peak
	// is published without allocating.
	levelPeaks []atomic.Int64
	failed     atomic.Bool // the shard's ORAM errored; it now rejects everything

	// Loop-private scratch: batch holds the slot's coalesced groups, ops the
	// stack's view of them, peaksScratch reads the per-level peaks without
	// allocating every slot. apply[i] is the fixed callback that applies
	// batch[i] to its block, built once so a slot builds no closure.
	batch        [][]*request
	ops          []pathoram.BatchOp
	apply        []func([]byte)
	peaksScratch []int

	// ledger is the shard's leakage account. activeTenants and lastEpoch are
	// loop-private: tenants are recorded as their requests are served, and
	// when the enforcer's epoch advances the ledger charges the transitions
	// and the tenants active in the closing epoch.
	ledger        *leakage.Ledger
	activeTenants map[string]struct{}
	lastEpoch     int

	// persist is the shard's checkpoint engine (nil for RAM-backed shards);
	// owned by the run goroutine like the ORAM itself. When deferAcks is set
	// (CheckpointEvery == 1), served requests park in done until the slot's
	// checkpoint lands, so every delivered ack is durable.
	persist   *persister
	ckptEvery int
	sinceCkpt int
	deferAcks bool
	done      []doneEntry
	recovery  string // "", "fresh" or "recovered"; immutable after newShard

	// Atomic mirrors of the persister's store-tier counters.
	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
	storeReads  atomic.Uint64
	storeWrites atomic.Uint64
	ckpts       atomic.Uint64
	ckptBytes   atomic.Uint64
	ckptNS      atomic.Uint64
}

// doneEntry is a served request whose completion is deferred until the
// covering checkpoint is durable.
type doneEntry struct {
	req *request
	err error
}

// newShard wraps a built stack (and its persister, for the file store) in
// a shard: its enforcer and its queue.
func newShard(id int, o *pathoram.Stack, p *persister, cfg Config, stop chan struct{}) (*shard, error) {
	enf, err := enforcerFor(cfg)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		id:    id,
		oram:  o,
		enf:   enf,
		queue: make(chan *request, cfg.QueueDepth),
		stop:  stop,
	}
	sh.levelPeaks = make([]atomic.Int64, len(o.LevelStashPeaks(nil)))
	sh.apply = make([]func([]byte), o.BatchK())
	for i := range sh.apply {
		sh.apply[i] = func(data []byte) { applyGroup(sh.batch[i], data) }
	}
	sh.ledger = leakage.NewLedger(len(cfg.Rates))
	sh.activeTenants = make(map[string]struct{})
	if sh.enf != nil {
		sh.lastEpoch = sh.enf.Epoch()
	}
	if p != nil {
		sh.persist = p
		sh.ckptEvery = cfg.CheckpointEvery
		sh.deferAcks = cfg.CheckpointEvery == 1
		sh.recovery = "fresh"
		if p.recovered {
			sh.recovery = "recovered"
		}
	}
	sh.publishStats() // stats are well-formed before the first slot
	return sh, nil
}

// run serves the shard until the store closes: wait for a slot, serve it.
// Paced and Unpaced differ only in how the loop waits (awaitSlot) and in the
// enforcer bookkeeping Unpaced has no enforcer to do. For a file-backed
// shard the exit path writes the shutdown checkpoint and closes the bucket
// files (the deferred shutdownPersist), so a clean Close leaves a zero-loss
// data dir.
func (sh *shard) run() {
	defer sh.shutdownPersist()
	var timer *time.Timer
	if sh.enf != nil {
		timer = time.NewTimer(0)
		defer timer.Stop()
		if !timer.Stop() {
			<-timer.C
		}
	}
	for sh.awaitSlot(timer) {
		if err := sh.slot(); err != nil {
			sh.fail(err)
			return
		}
	}
}

// slot serves one slot: take what it will carry (nothing, on an idle grid),
// account it to the enforcer, make the access, run the checkpoint cadence,
// deliver. Every slot, real or dummy, goes through the same steps, so
// nothing after the access depends on what the slot carried. A non-nil
// return means the shard can no longer serve.
func (sh *shard) slot() error {
	sh.fill()
	arrival := sh.takeBatch(sh.oram.BatchK())
	real := len(sh.batch) > 0
	if sh.enf != nil {
		sh.enf.TakeSlot(arrival, real)
		// TakeSlot is what advances the epoch, so the charge lands before
		// the store's admission check sees the tenant's next op.
		if epoch := sh.enf.Epoch(); epoch != sh.lastEpoch {
			sh.ledger.Advance(epoch-sh.lastEpoch, sh.activeTenants)
			sh.lastEpoch = epoch
		}
	}
	err := sh.serveBatch()
	if err == nil {
		err = sh.maybeCheckpoint()
	}
	if err != nil {
		sh.abortDone(err)
		return err
	}
	sh.flushDone()
	sh.publishStats()
	return nil
}

// awaitSlot blocks until the next slot may be served and reports false when
// the store is closing instead. Paced, that is when the data-independent
// grid's next slot opens, whether or not anything is queued. Unpaced — the
// unshielded base_oram mode — there is no grid and no dummy: the loop blocks
// on the queue itself, so a slot always has something to carry.
func (sh *shard) awaitSlot(timer *time.Timer) bool {
	var open <-chan time.Time
	switch {
	case sh.enf != nil:
		if _, wait := sh.enf.NextSlot(); wait > 0 {
			timer.Reset(wait)
			open = timer.C
		}
	case len(sh.fifo) == 0:
		select {
		case <-sh.stop:
			return false
		case req := <-sh.queue:
			sh.fifo = append(sh.fifo, req)
			return true
		}
	}
	if open == nil {
		// A backlog (Unpaced), or an overdue grid (we were busy or the host
		// stalled): serve back-to-back — for the grid, until it catches up
		// with wall time, so the issued access count matches the schedule.
		select {
		case <-sh.stop:
			return false
		default:
			return true
		}
	}
	select {
	case <-sh.stop:
		return false
	case <-open:
		return true
	}
}

// noteTenant records a served request's tenant as active in the current
// epoch (loop-private; untenanted traffic is not tracked).
func (sh *shard) noteTenant(tenant string) {
	if tenant != "" {
		sh.activeTenants[tenant] = struct{}{}
	}
}

// maybeCheckpoint runs the checkpoint cadence after every slot, real or
// dummy: every CheckpointEvery slots the shard's trusted state is sealed to
// disk. Counting dummies keeps the disk's write times a function of the
// slot grid alone (anyone who can watch the data dir would otherwise read
// the real/dummy pattern off base.bin's mtime) and bounds the dirty pages
// RetainDirty pins to one cadence window even on an idle daemon. With
// CheckpointEvery == 1 this runs between serving and acking, so an acked
// write is always recoverable.
func (sh *shard) maybeCheckpoint() error {
	if sh.persist == nil {
		return nil
	}
	sh.sinceCkpt++
	if sh.sinceCkpt < sh.ckptEvery {
		return nil
	}
	if err := sh.persist.checkpoint(sh.oram); err != nil {
		return err
	}
	sh.sinceCkpt = 0
	return nil
}

// shutdownPersist is the serving goroutine's exit hook for file-backed
// shards: on a clean stop it writes the final checkpoint and closes the
// bucket files; after a failure it only closes them, leaving the last good
// checkpoint as the recovery point.
func (sh *shard) shutdownPersist() {
	if sh.persist == nil {
		return
	}
	if sh.failed.Load() {
		sh.persist.closeStores()
		return
	}
	if err := sh.persist.shutdown(sh.oram); err != nil {
		// Nothing left to complete (the queue is drained by Close); surface
		// the lost-durability condition through the Failed stat.
		sh.failed.Store(true)
	}
	sh.ckpts.Store(sh.persist.ckpts)
	sh.ckptBytes.Store(sh.persist.ckptBytes)
	sh.ckptNS.Store(sh.persist.ckptNS)
}

// finish delivers a result now, or parks it until the covering checkpoint
// when acks are deferred.
func (sh *shard) finish(req *request, err error) {
	if sh.deferAcks {
		sh.done = append(sh.done, doneEntry{req: req, err: err})
		return
	}
	sh.complete(req, err)
}

// flushDone delivers the parked completions (no-op unless acks are
// deferred).
func (sh *shard) flushDone() {
	for i, d := range sh.done {
		sh.done[i] = doneEntry{}
		sh.complete(d.req, d.err)
	}
	sh.done = sh.done[:0]
}

// abortDone overrides any parked completions with err and delivers them —
// used when the slot's checkpoint failed, so successfully served requests
// must not be acked as durable.
func (sh *shard) abortDone(err error) {
	for i := range sh.done {
		sh.done[i].err = err
	}
	sh.flushDone()
}

// fail is the shard's terminal state after an ORAM error (storage/cipher
// corruption): every queued and future request is completed with the error
// until the store closes. Continuing to consume the queue matters — a
// silently dead shard would leave submitters blocked on a full queue while
// holding the store's read lock, which would in turn deadlock Close.
func (sh *shard) fail(err error) {
	sh.failed.Store(true)
	for _, req := range sh.fifo {
		sh.complete(req, err)
	}
	sh.fifo = nil
	for {
		select {
		case <-sh.stop:
			return
		case req := <-sh.queue:
			sh.complete(req, err)
		}
	}
}

// fill drains the submission queue into the loop-private FIFO without
// blocking.
func (sh *shard) fill() {
	for {
		select {
		case req := <-sh.queue:
			sh.fifo = append(sh.fifo, req)
		default:
			return
		}
	}
}

// takeBatch drains what the next slot will carry from the FIFO into
// sh.batch: up to max groups, each the FIFO head plus every queued
// request for the same block (coalescing), preserving the order of the
// groups, of each group's members and of the remaining FIFO. An empty FIFO
// yields an empty batch — the dummy slot. It returns the earliest arrival
// cycle across every member of every group: per the Fig 4 Waste semantics
// every coalesced member's queueing time counts, and since all the drained
// members' wait intervals end at this same slot, their union is exactly
// [min arrival, slot] — passing only the head's arrival would let a member
// that was stamped earlier (submitters race between stamping and
// enqueueing) slip out of the learner's Waste and underestimate demand
// exactly when load is high enough to coalesce.
func (sh *shard) takeBatch(max int) (arrival uint64) {
	sh.batch = sh.batch[:0]
	arrival = ^uint64(0)
	for len(sh.fifo) > 0 && len(sh.batch) < max {
		var group []*request
		if n := len(sh.batch); n < cap(sh.batch) {
			// Reuse the retired group slice parked at this batch position.
			group = sh.batch[:n+1][n][:0]
		}
		head := sh.fifo[0]
		keep := sh.fifo[:0] // filter in place over the same backing array
		for _, req := range sh.fifo {
			if req.local != head.local {
				keep = append(keep, req)
				continue
			}
			group = append(group, req)
			if req.arrival < arrival {
				arrival = req.arrival
			}
		}
		// Clear the tail so completed requests don't pin their buffers.
		clear(sh.fifo[len(keep):])
		sh.fifo = keep
		if n := len(group) - 1; n > 0 {
			sh.coalesced.Add(uint64(n))
		}
		sh.batch = append(sh.batch, group)
	}
	return arrival
}

// serveBatch serves the slot takeBatch drained: each group becomes one
// BatchOp whose callback (apply) runs the group's members in arrival order
// within a single access, and the stack pads the slot to its fixed shape;
// an empty batch is the dummy slot. Every drained request is always
// completed (with the error, if any); a non-nil return means the ORAM
// itself is broken and the shard must stop.
func (sh *shard) serveBatch() error {
	sh.ops = sh.ops[:0]
	for i, g := range sh.batch {
		sh.ops = append(sh.ops, pathoram.BatchOp{Addr: g[0].local, Fn: sh.apply[i]})
	}
	err := sh.oram.AccessBatch(sh.ops)
	if err == nil {
		// Count the slot before any result is delivered, so a client that
		// reads Stats after its ack always finds its own slot counted.
		if len(sh.batch) > 0 {
			sh.reals.Add(1)
		} else {
			sh.dummies.Add(1)
		}
		sh.batchFetched.Add(uint64(len(sh.batch)))
	}
	for _, g := range sh.batch {
		for i, req := range g {
			sh.noteTenant(req.tenant)
			g[i] = nil // the request is its submitter's again once finished
			sh.finish(req, err)
		}
	}
	return err
}

// applyGroup applies a group's members to their block in arrival order —
// a read observes every earlier queued write, exactly as if each request
// had run in its own (serialized) access. A write zero-pads its payload
// into the block; a read copies the block into its own buffer. Neither
// allocates.
func applyGroup(g []*request, data []byte) {
	for _, req := range g {
		if req.write {
			clear(data[copy(data, req.data):])
		} else {
			copy(req.data, data)
		}
	}
}

// complete delivers a request's outcome and releases its depth slot. The
// send hands the request back to its submitter, which may reuse it at
// once, so nothing here or after reads it.
func (sh *shard) complete(req *request, err error) {
	req.resp <- err
	sh.depth.Add(-1)
}

// drain fails every queued request after the serving goroutine has exited.
func (sh *shard) drain() {
	sh.fill()
	for _, req := range sh.fifo {
		sh.complete(req, ErrClosed)
	}
	sh.fifo = nil
	for {
		select {
		case req := <-sh.queue:
			sh.complete(req, ErrClosed)
		default:
			return
		}
	}
}

// publishStats refreshes the atomic mirrors of loop-private state.
func (sh *shard) publishStats() {
	_, peak := sh.oram.StashOccupancy()
	sh.stashPeak.Store(int64(peak))
	sh.forcedEvict.Store(sh.oram.ForcedEvictions())
	sh.peaksScratch = sh.oram.LevelStashPeaks(sh.peaksScratch[:0])
	for i, p := range sh.peaksScratch {
		sh.levelPeaks[i].Store(int64(p))
	}
	if sh.persist != nil {
		st := sh.oram.StorageStats()
		sh.storeHits.Store(st.CacheHits)
		sh.storeMisses.Store(st.CacheMisses)
		sh.storeReads.Store(st.FileReads)
		sh.storeWrites.Store(st.FileWrites)
		sh.ckpts.Store(sh.persist.ckpts)
		sh.ckptBytes.Store(sh.persist.ckptBytes)
		sh.ckptNS.Store(sh.persist.ckptNS)
	}
}

// stats snapshots the shard's counters and its leakage account. The
// rate-change history is cut to the transitions the ledger has charged: the
// enforcer applies a transition when the loop asks for the next slot, while
// the ledger charges it once that slot, the first under the new rate and so
// the one that reveals it, is issued.
func (sh *shard) stats() (ShardStats, leakage.Account) {
	acct := sh.ledger.Snapshot()
	ss := ShardStats{
		Shard:           sh.id,
		Queue:           int(sh.depth.Load()),
		RealAccesses:    sh.reals.Load(),
		DummyAccesses:   sh.dummies.Load(),
		Coalesced:       sh.coalesced.Load(),
		BatchFetched:    sh.batchFetched.Load(),
		ForcedEvictions: sh.forcedEvict.Load(),
		StashPeak:       int(sh.stashPeak.Load()),
		Failed:          sh.failed.Load(),
		CacheHits:       sh.storeHits.Load(),
		CacheMisses:     sh.storeMisses.Load(),
		FileReads:       sh.storeReads.Load(),
		FileWrites:      sh.storeWrites.Load(),
		Checkpoints:     sh.ckpts.Load(),
		CheckpointBytes: sh.ckptBytes.Load(),
		CheckpointNS:    sh.ckptNS.Load(),
		Recovery:        sh.recovery,
	}
	ss.StashPeaks = make([]int, len(sh.levelPeaks))
	for i := range sh.levelPeaks {
		ss.StashPeaks[i] = int(sh.levelPeaks[i].Load())
	}
	ss.LeakedBits = acct.LeakedBits
	if len(acct.Tenants) > 0 {
		ss.TenantTransitions = make(map[string]uint64, len(acct.Tenants))
		for _, r := range acct.Tenants {
			ss.TenantTransitions[r.Tenant] = r.Transitions
		}
	}
	if sh.enf != nil {
		ss.OverdueSlots, ss.MaxLagCycles = sh.enf.Slip()
		ss.RateChanges = sh.enf.RateChanges()
		if charged := acct.Transitions + 1; uint64(len(ss.RateChanges)) > charged {
			ss.RateChanges = ss.RateChanges[:charged]
		}
		// The last entry (never absent: epoch 0 is recorded at construction)
		// is the rate of the last slot issued — deriving Rate and Epoch from
		// it keeps them from ever contradicting RateChanges.
		last := ss.RateChanges[len(ss.RateChanges)-1]
		ss.Rate, ss.Epoch = last.Rate, last.Epoch
	}
	return ss, acct
}
