package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcoram/internal/server"
)

// runOpts is everything one run of one workload takes from outside.
type runOpts struct {
	Seed       int64
	Seconds    float64 // the measured window
	Trace      bool    // false: end-to-end run, tracing off; true: traced run and probes
	BlocksLog2 int
	Warmup     time.Duration
	Setups     int     // end-to-end run: set up at most this many times (at least three), report the median
	Recovers   int     // traced run: open at most this many times, report the median
	Scratch    string  // root of the file store's data directories
	OutDir     string  // where the traced run writes trace-<workload>.jsonl; "" writes nothing
	ProbeScale float64 // iteration multiplier of the probes
	// fault, when set, is put between every client and the service. Tests
	// use it to prove that a misbehaving service fails the run.
	fault func(kv) kv
}

// subWindows is the number of equal sub-windows the measured window is
// split into.
const subWindows = 12

// window is one stretch of a run over which counters are differenced.
type window struct {
	dur    time.Duration
	traced bool
}

// snapshot is every cumulative counter read at a window boundary.
type snapshot struct {
	t                   time.Time
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	c                   counters
	tx, rx              uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(e *env) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		t: time.Now(), cpu: processCPU(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
		c: e.counters(), tx: e.tx.Load(), rx: e.rx.Load(),
	}
}

// recorder is one client goroutine's samples, binned by the window in which
// each op completed. Only its owner writes it while the run is on.
type recorder struct {
	lat               [][2][]uint32 // [window][0 read submissions, 1 writes], ns
	ops               []uint64      // [window] verified ops (a batch of 8 counts 8)
	lag               [][]uint32    // [window] open-loop scheduler lateness, ns
	attempted, failed uint64
}

func newRecorder(windows int) *recorder {
	return &recorder{lat: make([][2][]uint32, windows), ops: make([]uint64, windows), lag: make([][]uint32, windows)}
}

func clampNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// meter drives one built env through a list of windows.
type meter struct {
	e    *env
	orc  *oracle
	tr   *tracer
	win  atomic.Int32 // current window, -1 outside the measured stretch
	stop atomic.Bool
	recs []*recorder
	ops  []uint32 // per client: id of the op in flight, shared with the in-process span wrapper
}

// client is one client goroutine's private state.
type client struct {
	id   int
	h    kv
	rec  *recorder
	buf  []byte   // write payload
	los  []uint32 // per batch member: lowest acceptable seq
	span *spanBuf
}

// do performs one submission against the service, verifies what came back
// and records it. due is when the op was due to be sent: the call time in a
// closed loop, the scheduled arrival in an open loop.
func (m *meter) do(c *client, op *genOp, due time.Time) {
	traced := m.tr.enabled()
	var t0 int64
	if traced {
		m.ops[c.id]++
		t0 = m.tr.now()
	}
	if due.IsZero() {
		due = time.Now()
	}
	n, bad := uint64(1), uint64(0)
	switch op.Kind {
	case opWrite:
		seq := m.orc.beginWrite(op.Addr, c.buf)
		err := c.h.Write(op.Addr, c.buf)
		m.orc.endWrite(op.Addr, seq, err == nil)
		if err != nil {
			bad = 1
		}
	case opRead:
		lo := m.orc.beginRead(op.Addr)
		data, err := c.h.Read(op.Addr)
		if err != nil || !m.orc.checkRead(op.Addr, lo, data) {
			bad = 1
		}
	case opBatch:
		n = uint64(len(op.Addrs))
		for i, a := range op.Addrs {
			c.los[i] = m.orc.beginRead(a)
		}
		res, err := c.h.ReadBatch("", op.Addrs)
		if err != nil || len(res) != len(op.Addrs) {
			bad = n
			break
		}
		for i, r := range res {
			if r.Err != nil || !m.orc.checkRead(op.Addrs[i], c.los[i], r.Data) {
				bad++
			}
		}
	}
	lat := time.Since(due)
	if traced {
		c.span.add(span{Hop: hopClient, Verb: op.Kind, Src: uint16(c.id), Op: m.ops[c.id], Start: t0, End: m.tr.now()})
	}
	// Every op is verified, warm-up included; only the measured windows
	// feed the metrics.
	c.rec.attempted += n
	c.rec.failed += bad
	w := m.win.Load()
	if w < 0 {
		return
	}
	c.rec.ops[w] += n - bad
	k := 0
	if op.Kind == opWrite {
		k = 1
	}
	c.rec.lat[w][k] = append(c.rec.lat[w][k], clampNS(lat))
}

// arrival is one scheduled open-loop op on its way to a pool worker.
type arrival struct {
	due  time.Time
	kind opKind
	addr uint64
}

// run starts the load, walks the windows taking a snapshot at every
// boundary, stops the load and returns the snapshots (one more than there
// are windows) and the sampled mean queue depth of the traced windows.
func (m *meter) run(w workload, seed int64, warmup time.Duration, windows []window) ([]snapshot, float64) {
	nclients := len(m.e.clients)
	m.recs = make([]*recorder, nclients+1) // the last one is the open-loop scheduler's
	for i := range m.recs {
		m.recs[i] = newRecorder(len(windows))
	}
	m.win.Store(-1)
	clients := make([]*client, nclients)
	for i := range clients {
		clients[i] = &client{id: i, h: m.e.clients[i], rec: m.recs[i],
			buf: make([]byte, w.Store.BlockBytes), los: make([]uint32, w.Gen.Batch)}
		if m.tr != nil {
			clients[i].span = m.tr.buf()
		}
	}

	var wg sync.WaitGroup
	if w.openLoop() {
		// One scheduler turns the seed into Poisson arrivals; the pool only
		// carries them out. The pool is wide enough that an arrival never
		// waits for a worker: each op is timed from when it was due, and
		// gen.sched_lag_p99_us reports how late the scheduler itself ran.
		feed := make(chan arrival, 4096) // a stalled pool shows as latency, not as a blocked scheduler
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				var op genOp
				for a := range feed {
					op.Kind, op.Addr = a.kind, a.addr
					m.do(c, &op, a.due)
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(feed)
			g := newGenerator(w.Gen, seed, 1, 0)
			rec := m.recs[nclients]
			next := time.Now()
			for !m.stop.Load() {
				op := g.Next()
				next = next.Add(op.Gap)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				if win := m.win.Load(); win >= 0 {
					rec.lag[win] = append(rec.lag[win], clampNS(time.Since(next)))
				}
				feed <- arrival{due: next, kind: op.Kind, addr: op.Addr}
			}
		}()
	} else {
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				g := newGenerator(w.Gen, seed, nclients, c.id)
				for !m.stop.Load() {
					m.do(c, g.Next(), time.Time{})
				}
			}(c)
		}
	}

	time.Sleep(warmup)
	snaps := make([]snapshot, 0, len(windows)+1)
	var queueSum, queueN float64
	for i, win := range windows {
		if m.tr != nil {
			m.tr.on.Store(win.traced)
		}
		snaps = append(snaps, takeSnapshot(m.e))
		m.win.Store(int32(i))
		if !win.traced {
			time.Sleep(win.dur)
			continue
		}
		for end := time.Now().Add(win.dur); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
			queueSum += float64(m.e.counters().Queue)
			queueN++
		}
	}
	snaps = append(snaps, takeSnapshot(m.e))
	m.win.Store(-1)
	if m.tr != nil {
		m.tr.on.Store(false)
	}
	m.stop.Store(true)
	wg.Wait()
	return snaps, queueSum / math.Max(queueN, 1)
}

// opsIn sums the verified ops of window i over all clients.
func (m *meter) opsIn(i int) float64 {
	var n uint64
	for _, r := range m.recs {
		n += r.ops[i]
	}
	return float64(n)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// repeatMore decides whether a timed step that has run len(secs) times runs
// again: while the runs together have taken under 1.5 s, up to atMost times.
// The median of three 100 ms steps is mostly noise.
func repeatMore(atMost int, secs []float64) bool {
	total := 0.0
	for _, s := range secs {
		total += s
	}
	return total < 1.5 && len(secs) < atMost
}

// setUp builds the service and writes every block once, so the trees are as
// full as they will get and every later read has a payload to verify.
func setUp(w workload, opts runOpts, tr *tracer, ops []uint32) (instance, error) {
	nclients := w.clients()
	dir, err := w.newDataDir(opts.Scratch)
	if err != nil {
		return instance{}, err
	}
	e, err := buildEnv(w, nclients, dir, tr, ops)
	if err != nil {
		removeDataDir(dir)
		return instance{}, err
	}
	if opts.fault != nil {
		for i, h := range e.clients {
			e.clients[i] = opts.fault(h)
		}
	}
	orc := newOracle(w.Gen.Blocks, nclients)
	// One writer per client handle, like the measured loop: more would put
	// the set-up at the mercy of how much of the second core the host hands
	// out, and setup_s came out bimodal. (The open-loop pool is 64 wide, which
	// is what fills a paced store's batch slots.)
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for j := 0; j < nclients; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			h := e.clients[j]
			buf := make([]byte, w.Store.BlockBytes)
			for a := uint64(j); a < w.Gen.Blocks; a += uint64(nclients) {
				seq := orc.beginWrite(a, buf)
				err := h.Write(a, buf)
				orc.endWrite(a, seq, err == nil)
				if err != nil {
					failed.Add(1)
				}
			}
		}(j)
	}
	wg.Wait()
	in := instance{e: e, orc: orc, dir: dir}
	if n := failed.Load(); n > 0 {
		in.discard()
		return instance{}, fmt.Errorf("%s: %d of %d set-up writes failed", w.Name, n, w.Gen.Blocks)
	}
	return in, nil
}

// dataDirs is every scratch directory alive right now, so that an interrupt
// can remove them.
var dataDirs sync.Map

// newDataDir makes the scratch directory of a file-backed workload ("" for
// the others) under root.
func (w workload) newDataDir(root string) (string, error) {
	if w.Store.Store != server.StoreFile {
		return "", nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, w.Name+"-")
	if err == nil {
		dataDirs.Store(dir, struct{}{})
	}
	return dir, err
}

func removeDataDir(dir string) {
	if dir == "" {
		return
	}
	os.RemoveAll(dir)
	dataDirs.Delete(dir)
}

func removeAllDataDirs() {
	dataDirs.Range(func(k, _ any) bool {
		os.RemoveAll(k.(string))
		return true
	})
}

// trials is the number of instances an end-to-end run measures: the service
// is set up three times anyway (setup_s is a median), and measuring a third
// of the window on each spreads the window over more wall time than a
// neighbour's burst usually lasts.
const trials = 3

// windowSample is what one measured sub-window contributes to the
// end-to-end metrics.
type windowSample struct {
	secs, ops, cpuUS, slots, mallocs float64
	lat                              [2][]uint32 // 0 read submissions, 1 writes
}

// samples reduces a finished run's snapshots and records to one sample per
// window.
func (m *meter) samples(snaps []snapshot) []windowSample {
	out := make([]windowSample, len(snaps)-1)
	for i := range out {
		a, b := snaps[i], snaps[i+1]
		out[i] = windowSample{
			secs:    b.t.Sub(a.t).Seconds(),
			ops:     math.Max(m.opsIn(i), 1),
			cpuUS:   float64((b.cpu - a.cpu).Microseconds()),
			slots:   math.Max(float64((b.c.Real+b.c.Dummy)-(a.c.Real+a.c.Dummy)), 1),
			mallocs: float64(b.mallocs - a.mallocs),
		}
		for kind := range out[i].lat {
			for _, r := range m.recs {
				out[i].lat[kind] = append(out[i].lat[kind], r.lat[i][kind]...)
			}
		}
	}
	return out
}

// runWorkload is one whole run of one workload.
func runWorkload(w workload, opts runOpts) (*result, error) {
	w = w.sized(opts.BlocksLog2)
	res := newResult(w.Name, opts)
	var err error
	if opts.Trace {
		err = runTraced(res, w, opts)
	} else {
		err = runEndToEnd(res, w, opts)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// instance is one set-up service with its oracle and scratch directory.
type instance struct {
	e   *env
	orc *oracle
	dir string
}

// close stops the service and keeps the scratch directory.
func (in *instance) close() error {
	if in.e == nil {
		return nil
	}
	err := in.e.close()
	in.e = nil
	return err
}

// discard stops the service and removes the scratch directory.
func (in *instance) discard() {
	in.close()
	removeDataDir(in.dir)
}

// measureOn drives one instance through the windows and folds the run's op
// counts and validity into res.
func measureOn(res *result, in *instance, w workload, opts runOpts, tr *tracer, ops []uint32, windows []window) (*meter, []snapshot, float64, error) {
	m := &meter{e: in.e, orc: in.orc, tr: tr, ops: ops}
	snaps, queueMean := m.run(w, opts.Seed, opts.Warmup, windows)
	for _, r := range m.recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if snaps[len(snaps)-1].c.Failed {
		return nil, nil, 0, fmt.Errorf("%s: a shard failed during the run", w.Name)
	}
	m.validate(res, w, snaps)
	return m, snaps, queueMean, nil
}

// runEndToEnd measures with tracing off: set up, warm up and measure a
// third of the window, three times over; then time recovery.
func runEndToEnd(res *result, w workload, opts runOpts) error {
	var setupS []float64
	var all []windowSample
	var in instance
	defer in.discard()
	windows := make([]window, subWindows/trials)
	for i := range windows {
		windows[i].dur = time.Duration(opts.Seconds / subWindows * float64(time.Second))
	}
	// A set-up of 100 ms is mostly noise, so a fast one is repeated (up to
	// opts.Setups times in all) before the instances that are measured.
	for n := 0; n < trials || repeatMore(opts.Setups, setupS); n++ {
		if err := in.close(); err != nil {
			return err
		}
		in.discard()
		debug.FreeOSMemory() // so peak_rss_mb is one instance's, not the sum
		t0 := time.Now()
		var err error
		if in, err = setUp(w, opts, nil, nil); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if len(all) == trials*len(windows) {
			continue // a repeat for setup_s only
		}
		m, snaps, _, err := measureOn(res, &in, w, opts, nil, nil, windows)
		if err != nil {
			return err
		}
		all = append(all, m.samples(snaps)...)
	}
	rss := peakRSSMiB()
	res.set("setup_s", summarize(setupS))
	endToEndMetrics(res, all)
	res.set("peak_rss_mb", summary{Median: rss, Min: rss, Max: rss, N: 1})
	if err := in.close(); err != nil {
		return err
	}
	if w.Store.Store != server.StoreFile {
		return nil
	}
	// Durability is part of being correct: reopen the data directory and read
	// back every acknowledged write. (The traced run times this.)
	e, err := buildEnv(w, 1, in.dir, nil, nil)
	if err != nil {
		return err
	}
	readBack(res, e, in.orc, w.Gen.Blocks)
	return e.close()
}

// runTraced is the per-layer run: one instance, one continuous load, tracing
// switched off and on by turns so that the ratio of the two medians is what
// tracing costs, free of drift over the run.
func runTraced(res *result, w workload, opts runOpts) error {
	tr := newTracer()
	ops := make([]uint32, w.clients())
	in, err := setUp(w, opts, tr, ops)
	if err != nil {
		return err
	}
	defer in.discard()
	windows := make([]window, subWindows)
	for i := range windows {
		windows[i] = window{dur: time.Duration(opts.Seconds / subWindows * float64(time.Second)), traced: i%2 == 1}
	}
	m, snaps, queueMean, err := measureOn(res, &in, w, opts, tr, ops, windows)
	if err != nil {
		return err
	}
	m.layerMetrics(res, w, windows, snaps, queueMean)
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(opts.OutDir, "trace-"+w.Name+".jsonl")); err != nil {
			return err
		}
	}
	// Close before anything else is built, so that a later store does not
	// share the box with this one's paced grid.
	if err := in.close(); err != nil {
		return err
	}
	return measureRecover(res, w, opts, in.orc, in.dir)
}

// endToEndMetrics reduces the measured sub-windows to the metrics a user of
// the service would see.
func endToEndMetrics(res *result, all []windowSample) {
	var thr, cpuOp, cpuSlot, slotsOp, allocs []float64
	var lat [2][][]uint32
	var ops, slots, mallocs float64
	for _, s := range all {
		ops, slots, mallocs = ops+s.ops, slots+s.slots, mallocs+s.mallocs
		thr = append(thr, s.ops/s.secs)
		cpuOp = append(cpuOp, s.cpuUS/s.ops)
		cpuSlot = append(cpuSlot, s.cpuUS/s.slots)
		slotsOp = append(slotsOp, s.slots/s.ops)
		allocs = append(allocs, s.mallocs/s.ops)
		for kind := range lat {
			lat[kind] = append(lat[kind], s.lat[kind])
		}
	}
	res.set("throughput_ops_s", summarize(thr))
	res.set("cpu_us_per_op", summarize(cpuOp))
	res.set("cpu_us_per_slot", summarize(cpuSlot))
	// The two counts do not suffer from a neighbour's burst, so they are
	// taken over the whole window: the median of twelve ratios would only
	// add the sub-windows' sampling noise.
	total := func(s summary, num, den float64) summary {
		s.Median = num / den
		return s
	}
	res.set("slots_per_op", total(summarize(slotsOp), slots, ops))
	res.set("allocs_per_op", total(summarize(allocs), mallocs, ops))
	for kind, name := range []string{"read", "write"} {
		for _, p := range []struct {
			q   float64
			tag string
		}{{0.50, "p50"}, {0.99, "p99"}} {
			res.set(name+"_"+p.tag+"_us", windowQuantile(lat[kind], p.q, 1e-3))
		}
	}
}

// validate applies the checks that decide whether the run is a result at
// all: a paced grid that slipped, or a generator that ran late, measured
// the box and not the program.
func (m *meter) validate(res *result, w workload, snaps []snapshot) {
	first, last := snaps[0], snaps[len(snaps)-1]
	slots := float64((last.c.Real + last.c.Dummy) - (first.c.Real + first.c.Dummy))
	overdue := float64(last.c.Overdue - first.c.Overdue)
	if w.Store.Unpaced {
		if last.c.Dummy != 0 || last.c.Overdue != 0 {
			res.invalidate("an unpaced store reported dummy or overdue slots")
		}
		return
	}
	if slots > 0 && overdue/slots > 0.01 {
		res.invalidate(fmt.Sprintf("%.1f%% of slots were issued a period late: the box could not hold the grid", 100*overdue/slots))
	}
	if last.c.LeakedBits != 0 {
		res.Failed++ // a static grid leaks nothing; any bit is a wrong output
	}
	var lag []uint32
	for _, l := range m.recs[len(m.recs)-1].lag {
		lag = append(lag, l...)
	}
	slices.Sort(lag)
	if p99 := quantile(lag, 0.99) / 1e3; p99 > pacedPeriodUS/2 {
		res.invalidate(fmt.Sprintf("the open-loop scheduler ran %.0f µs late at p99, over half a slot period", p99))
	}
}

// measureRecover times server.New to the first verified read. For the file
// store that is recovery from the data directory the run just used, and the
// first reopen also reads back every acknowledged write; for the others it
// is a cold start of an empty service.
func measureRecover(res *result, w workload, opts runOpts, orc *oracle, dir string) error {
	durable := w.Store.Store == server.StoreFile
	var secs []float64
	for i := 0; i == 0 || repeatMore(opts.Recovers, secs); i++ {
		d, o := dir, orc
		if !durable {
			d, o = "", newOracle(w.Gen.Blocks, 1)
		}
		t0 := time.Now()
		e, err := buildEnv(w, 1, d, nil, nil)
		if err != nil {
			return err
		}
		addr := uint64(i) * 7919 % w.Gen.Blocks
		lo := o.beginRead(addr)
		data, err := e.clients[0].Read(addr)
		secs = append(secs, time.Since(t0).Seconds())
		res.Attempted++
		if err != nil || !o.checkRead(addr, lo, data) {
			res.Failed++
		}
		if durable && i == 0 {
			readBack(res, e, o, w.Gen.Blocks)
		}
		if err := e.close(); err != nil {
			return err
		}
	}
	res.set("server.recover_s", summarize(secs))
	return nil
}

// readBack checks that every block holds exactly the last acknowledged
// write: nothing is in flight, so the oracle's interval is one value.
func readBack(res *result, e *env, orc *oracle, blocks uint64) {
	readers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var bad atomic.Uint64
	for j := 0; j < readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for a := uint64(j); a < blocks; a += uint64(readers) {
				lo := orc.beginRead(a)
				data, err := e.clients[0].Read(a)
				if err != nil || !orc.checkRead(a, lo, data) {
					bad.Add(1)
				}
			}
		}(j)
	}
	wg.Wait()
	res.Attempted += blocks
	res.Failed += bad.Load()
}
