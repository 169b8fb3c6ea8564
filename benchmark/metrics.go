package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
)

// metricDef names one metric. BENCHMARK.json repeats these tables and
// TestBenchmarkJSONMatchesTables keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the service sees. Every workload reports every
// one of them, so each is defined to be meaningful — and never zero — on
// all five; README.md says what each means where.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"cpu_us_per_slot", "us", "lower", 0.25},
	{"slots_per_op", "count", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer is the single-layer view: counters differenced over the traced
// window, span aggregates, and the probes. A metric whose layer does no
// work on a workload reads 0 there, which is itself a checked prediction.
var perLayer = []metricDef{
	{"server.store_call_us", "us", "lower", 0},
	{"server.coalesced_frac", "frac", "higher", 0},
	{"server.queue_mean", "count", "lower", 0},
	{"server.batch_fill", "frac", "higher", 0},
	{"server.real_slots", "count", "higher", 0},
	{"server.dummy_slots", "count", "lower", 0},
	{"server.dummy_frac", "frac", "lower", 0},
	{"server.disk_bytes_per_op", "B", "lower", 0},
	{"server.checkpoints", "count", "lower", 0},
	{"server.checkpoint_us", "us", "lower", 0},
	{"server.checkpoint_kb", "KiB", "lower", 0},
	{"server.checkpoint_busy_frac", "frac", "lower", 0},
	{"server.recover_s", "s", "lower", 0},
	{"core.overdue_frac", "frac", "lower", 0},
	{"core.max_lag_us", "us", "lower", 0},
	{"pathoram.cache_hit_frac", "frac", "higher", 0},
	{"pathoram.file_reads_per_op", "count", "lower", 0},
	{"pathoram.file_writes_per_op", "count", "lower", 0},
	{"pathoram.mmap_reads_per_op", "count", "lower", 0},
	{"pathoram.stash_peak", "count", "lower", 0},
	{"pathoram.forced_evictions", "count", "lower", 0},
	{"wire.client_hop_us", "us", "lower", 0},
	{"wire.tx_bytes_per_op", "B", "lower", 0},
	{"wire.rx_bytes_per_op", "B", "lower", 0},
	{"cluster.route_us", "us", "lower", 0},
	{"cluster.fanout_mean", "count", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"cluster.replica_write_misses", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"gen.sched_lag_p99_us", "us", "lower", 0},
	{"gen.next_ns", "ns", "lower", 0},
	{"trace.client_p50_us", "us", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.reconcile_frac", "frac", "higher", 0},
	// Probes: direct calls into each layer's public functions.
	{"pathoram.flat_access_ns", "ns", "lower", 0},
	{"pathoram.flat_dummy_ns", "ns", "lower", 0},
	{"pathoram.flat_allocs", "count", "lower", 0},
	{"pathoram.recursive_access_ns", "ns", "lower", 0},
	{"pathoram.recursive_merkle_access_ns", "ns", "lower", 0},
	{"pathoram.merkle_overhead_ns", "ns", "lower", 0},
	{"pathoram.batched_slot_ns", "ns", "lower", 0},
	{"pathoram.batched_dummy_slot_ns", "ns", "lower", 0},
	{"pathoram.file_access_hit_ns", "ns", "lower", 0},
	{"pathoram.file_access_miss_ns", "ns", "lower", 0},
	{"pathoram.file_access_mmap_ns", "ns", "lower", 0},
	{"pathoram.capture_state_us", "us", "lower", 0},
	{"pathoram.capture_state_kb", "KiB", "lower", 0},
	{"crypt.encrypt_bucket_ns", "ns", "lower", 0},
	{"crypt.decrypt_bucket_ns", "ns", "lower", 0},
	{"crypt.seal_us_per_64kb", "us", "lower", 0},
	{"crypt.open_us_per_64kb", "us", "lower", 0},
	{"core.take_slot_ns", "ns", "lower", 0},
	{"core.take_slot_dynamic_ns", "ns", "lower", 0},
	{"wire.rtt_read_us", "us", "lower", 0},
	{"wire.rtt_write_us", "us", "lower", 0},
	{"wire.rtt_batch8_us", "us", "lower", 0},
	{"wire.rtt_batch4_us", "us", "lower", 0},
	{"wire.allocs_per_rtt", "count", "lower", 0},
	{"cluster.route_stub_us", "us", "lower", 0},
	{"cluster.route_stub_write_us", "us", "lower", 0},
	{"host.calib_ns", "ns", "lower", 0},
	{"host.nproc", "count", "higher", 0},
	{"host.gomaxprocs", "count", "higher", 0},
	{"host.loadavg1", "count", "lower", 0},
}

func findMetric(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number with what it was reduced from.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Windows is the per-sub-window series the value is the median of.
	Windows []float64 `json:"windows,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Valid     bool                   `json:"valid"`
	Invalid   string                 `json:"invalid,omitempty"` // why the run is not a result
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Hop p50s (µs) of the traced run, kept until the probes it is compared
	// against have run.
	clientP50, proxyP50, nodeP50 float64
	subBatch                     float64 // addresses per node call of a read submission
}

func newResult(workload string, opts runOpts) *result {
	return &result{Workload: workload, Seed: opts.Seed, Seconds: opts.Seconds, Traced: opts.Trace,
		Valid: true, Metrics: make(map[string]metricValue)}
}

// set records a metric. An unknown name is a bug in the benchmark.
func (r *result) set(name string, s summary) {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is in no table")
	}
	r.Metrics[name] = metricValue{Value: s.Median, Unit: d.Unit, Min: s.Min, Max: s.Max, N: s.N, Windows: s.Windows}
}

func (r *result) setValue(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.set(name, summary{Median: v, Min: v, Max: v, N: 1})
}

func (r *result) invalidate(why string) {
	r.Valid = false
	if r.Invalid != "" {
		r.Invalid += "; "
	}
	r.Invalid += why
}

// FailedFrac is (errored + refused + wrong-payload) / attempted.
func (r *result) FailedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// ok reports whether the run may exit 0: every output was correct.
func (r *result) ok() bool { return r.Attempted > 0 && r.Failed == 0 }

func (r *result) table() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric of the run's table by name with its unit. An
// invalid run's timings are not results and are printed as INVALID.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  %.1f s  %s\n", r.Workload, r.Seed, r.Seconds, map[bool]string{false: "end to end, tracing off", true: "traced run and probes"}[r.Traced])
	for _, d := range r.table() {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-36s %14s %s\n", d.Name, "-", d.Unit)
		case !r.Valid && !r.Traced:
			fmt.Fprintf(w, "  %-36s %14s %s\n", d.Name, "INVALID", d.Unit)
		case v.N > 1:
			thin := ""
			if strings.Contains(d.Name, "_p99_") && supportedPercentile(v.N) < 0.99 {
				thin = "  THIN: fewer than 10 samples beyond p99"
			}
			fmt.Fprintf(w, "  %-36s %14.4f %-6s min %.4f max %.4f n %d%s\n", d.Name, v.Value, d.Unit, v.Min, v.Max, v.N, thin)
		default:
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v.Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "  %-36s %14.6f frac   %d failed of %d attempted\n", "failed_frac", r.FailedFrac(), r.Failed, r.Attempted)
	if !r.Valid {
		fmt.Fprintf(w, "  INVALID: %s\n", r.Invalid)
	}
}

// lastLine is the driver's contract: one JSON object with exactly these
// keys, every metric of the run's table in it.
func (r *result) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.ok(), r.Attempted, r.Failed, make(map[string]mv)}
	for _, d := range r.table() {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// layerMetrics fills the per-layer table from the traced run, whose windows
// alternate between tracing off and tracing on under one continuous load.
// Counters are differenced over the traced windows; the untraced ones are
// there for what tracing costs.
func (m *meter) layerMetrics(res *result, w workload, windows []window, snaps []snapshot, queueMean float64) {
	var c counters
	var wall, ops, tx, rx, gcCycles, allocBytes float64
	var gcPause time.Duration
	var thrOn, thrOff []float64
	var lag []uint32
	for i, win := range windows {
		a, b := snaps[i], snaps[i+1]
		thr := m.opsIn(i) / b.t.Sub(a.t).Seconds()
		if !win.traced {
			thrOff = append(thrOff, thr)
			continue
		}
		thrOn = append(thrOn, thr)
		c = c.plus(b.c.since(a.c))
		wall += b.t.Sub(a.t).Seconds()
		ops += m.opsIn(i)
		tx += float64(b.tx - a.tx)
		rx += float64(b.rx - a.rx)
		allocBytes += float64(b.allocBytes - a.allocBytes)
		gcCycles += float64(b.gcCycles - a.gcCycles)
		gcPause += b.gcPause - a.gcPause
		lag = append(lag, m.recs[len(m.recs)-1].lag[i]...)
	}
	ops = math.Max(ops, 1)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	f := func(x uint64) float64 { return float64(x) }

	groups := f(c.Real) // one coalesced group per real slot, except on the batched backend
	if w.Store.BatchK > 0 {
		groups = f(c.BatchFetched)
	}
	res.setValue("server.coalesced_frac", ratio(f(c.Coalesced), f(c.Coalesced)+groups))
	res.setValue("server.queue_mean", queueMean)
	res.setValue("server.batch_fill", ratio(f(c.BatchFetched), f(c.Real)*float64(w.Store.BatchK)))
	res.setValue("server.real_slots", f(c.Real))
	res.setValue("server.dummy_slots", f(c.Dummy))
	res.setValue("server.dummy_frac", ratio(f(c.Dummy), f(c.Real+c.Dummy)))
	res.setValue("core.overdue_frac", ratio(f(c.Overdue), f(c.Real+c.Dummy)))
	res.setValue("core.max_lag_us", ratio(f(c.MaxLagCycles)*1e6, f(w.Store.ClockHz)))

	res.setValue("server.checkpoints", f(c.Checkpoints))
	res.setValue("server.checkpoint_us", ratio(f(c.CheckpointNS)/1e3, f(c.Checkpoints)))
	res.setValue("server.checkpoint_kb", ratio(f(c.CheckpointBytes)/1024, f(c.Checkpoints)))
	res.setValue("server.checkpoint_busy_frac", f(c.CheckpointNS)/1e9/wall/float64(w.Store.Shards))
	res.setValue("server.disk_bytes_per_op", f(c.CheckpointBytes+c.FileWrites*w.bucketBytes())/ops)
	res.setValue("pathoram.cache_hit_frac", ratio(f(c.CacheHits), f(c.CacheHits+c.CacheMisses)))
	res.setValue("pathoram.file_reads_per_op", f(c.FileReads)/ops)
	res.setValue("pathoram.file_writes_per_op", f(c.FileWrites)/ops)
	res.setValue("pathoram.mmap_reads_per_op", f(c.MMapReads)/ops)
	res.setValue("pathoram.stash_peak", float64(c.StashPeak))
	res.setValue("pathoram.forced_evictions", f(c.Forced))

	res.setValue("wire.tx_bytes_per_op", tx/ops)
	res.setValue("wire.rx_bytes_per_op", rx/ops)
	res.setValue("runtime.alloc_bytes_per_op", allocBytes/ops)
	res.setValue("runtime.gc_cycles", gcCycles)
	res.setValue("runtime.gc_pause_ms", float64(gcPause.Microseconds())/1e3)

	slices.Sort(lag)
	res.setValue("gen.sched_lag_p99_us", quantile(lag, 0.99)/1e3)
	res.setValue("gen.next_ns", timeNext(w))
	res.setValue("trace.overhead_frac", 1-ratio(summarize(thrOn).Median, summarize(thrOff).Median))

	// Hop aggregates, on read submissions (the verb every workload has most
	// of). A read waits for its slowest node, so the node hop is the slower
	// node's p50.
	verb := opRead
	if w.Gen.Batch > 0 {
		verb = opBatch
	}
	p50 := func(keep func(span) bool) (float64, int) {
		dur := m.tr.collect(func(s span) bool { return s.Verb == verb && keep(s) })
		return quantile(dur, 0.5) / 1e3, len(dur)
	}
	var clientN, nodeN int
	res.clientP50, clientN = p50(func(s span) bool { return s.Hop == hopClient })
	res.proxyP50, _ = p50(func(s span) bool { return s.Hop == hopProxy })
	if w.Cluster {
		for n := uint16(0); n < 2; n++ {
			v, k := p50(func(s span) bool { return s.Hop == hopNode && s.Src == n })
			res.nodeP50 = math.Max(res.nodeP50, v)
			nodeN += k
		}
		res.setValue("wire.client_hop_us", hopSelf(res.clientP50, res.proxyP50))
		res.setValue("cluster.fanout_mean", ratio(float64(nodeN), float64(clientN)))
		if st, err := m.e.router.ServiceStats(); err == nil {
			var failovers, misses uint64
			for _, n := range st.Nodes {
				failovers += n.Failovers
				misses += n.ReplicaWriteMisses
			}
			res.setValue("cluster.failovers", float64(failovers))
			res.setValue("cluster.replica_write_misses", float64(misses))
		}
	} else {
		res.nodeP50, nodeN = p50(func(s span) bool { return s.Hop == hopNode })
		for _, name := range []string{"wire.client_hop_us", "cluster.fanout_mean", "cluster.failovers", "cluster.replica_write_misses"} {
			res.setValue(name, 0)
		}
	}
	res.subBatch = 1
	if w.Gen.Batch > 0 {
		res.subBatch = ratio(float64(w.Gen.Batch)*float64(clientN), float64(nodeN))
	}
	res.setValue("server.store_call_us", res.nodeP50)
	res.setValue("trace.client_p50_us", res.clientP50)
}

// collect returns the ascending durations (ns) of the spans keep accepts.
func (t *tracer) collect(keep func(span) bool) []uint32 {
	var d []uint32
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if keep(s) {
				d = append(d, uint32(s.End-s.Start))
			}
		}
	}
	slices.Sort(d)
	return d
}

// timeNext is the generator's own cost per op.
func timeNext(w workload) float64 {
	const iters = 1_000_000
	g := newGenerator(w.Gen, 1, 2, 0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		g.Next()
	}
	return float64(time.Since(t0).Nanoseconds()) / iters
}

// derive fills the metrics that compare the traced run's hops with the
// probes: the routing proxy's own time, and how much of a client call the
// outside measurements can put a layer's name to.
func (r *result) derive(w workload, probes map[string]float64) {
	for name, v := range probes {
		r.setValue(name, v)
	}
	route := 0.0
	if w.Cluster {
		// What the proxy adds: its span, minus the slower node's span, minus
		// a bare codec round trip for the sub-batch it sent that node.
		route = math.Max(0, hopSelf(r.proxyP50, r.nodeP50)-probes["wire.rtt_batch4_us"])
	}
	r.setValue("cluster.route_us", route)
	// Outside the store, span differences account for everything. Inside it
	// only the ORAM access is accounted, by the probe of the workload's
	// backend; queueing, slot wait and hand-off inside the store's span stay
	// unattributed until the program records its own spans.
	access := map[string]string{
		"flat-mem":         "pathoram.flat_access_ns",
		"recursive-merkle": "pathoram.recursive_merkle_access_ns",
		"durable-file":     "pathoram.file_access_miss_ns",
		"cluster-cdsi":     "pathoram.flat_access_ns",
		"paced-batched":    "pathoram.batched_slot_ns",
	}[w.Name]
	inStore := probes[access] / 1e3 * r.subBatch
	if r.clientP50 > 0 {
		r.setValue("trace.reconcile_frac", (hopSelf(r.clientP50, r.nodeP50)+math.Min(inStore, r.nodeP50))/r.clientP50)
	}
}

// problems lists what is wrong with a run as a report: a metric of its
// table missing or not finite, an end-to-end metric at zero, a failed op.
func (r *result) problems() []string {
	var out []string
	for _, d := range r.table() {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			out = append(out, "metric "+d.Name+" is missing")
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			out = append(out, "metric "+d.Name+" is not finite")
		case v.Unit != d.Unit:
			out = append(out, "metric "+d.Name+" has unit "+v.Unit+", want "+d.Unit)
		case !r.Traced && v.Value <= 0:
			out = append(out, "end-to-end metric "+d.Name+" is not positive")
		}
	}
	if !r.ok() {
		out = append(out, fmt.Sprintf("failed_frac is %g (%d of %d)", r.FailedFrac(), r.Failed, r.Attempted))
	}
	return out
}
