package server

import (
	"sync"
	"time"
)

// This file is the bandwidth/latency-shaped transport wrapper: a KV
// decorator that delays every operation by a propagation term (RTT) plus a
// serialization term proportional to the encoded bytes over a configured
// link rate — the BlockOpsConstrained idea from kbfs, applied to the
// frame protocol. It shapes the *caller's* view of the link (loadgen
// clients, e2e harnesses) without touching the serving side, so throughput
// and learner behavior can be measured under WAN conditions instead of
// loopback.

// WANConfig shapes a simulated wide-area link.
type WANConfig struct {
	// KBps is the link bandwidth in kilobytes per second; every operation's
	// encoded request and response bytes serialize through it. 0 = unlimited.
	KBps int
	// RTT is the round-trip propagation delay added to every operation
	// (half on the request leg, half on the response). 0 = none.
	RTT time.Duration
}

// Enabled reports whether the config shapes anything.
func (c WANConfig) Enabled() bool { return c.KBps > 0 || c.RTT > 0 }

// WrapWAN decorates kv with the shaped link, or returns it unchanged when
// the config is disabled. Each wrapped KV models one client's access link:
// operations from many goroutines sharing the wrapper serialize through the
// same bandwidth, as they would through one uplink.
func WrapWAN(kv KV, cfg WANConfig) KV {
	if !cfg.Enabled() {
		return kv
	}
	return &wanKV{kv: kv, cfg: cfg}
}

// wanKV is the shaping decorator. The link is modeled as a single serial
// resource: each transfer reserves the next free [start, start+duration)
// window under mu, then sleeps until its window closes, so concurrent
// callers queue behind each other exactly as frames do on a real uplink.
type wanKV struct {
	kv  KV
	cfg WANConfig

	mu   sync.Mutex
	free time.Time // when the link next becomes idle
}

// link serializes n bytes through the configured bandwidth.
func (w *wanKV) link(n int) {
	if w.cfg.KBps <= 0 || n <= 0 {
		return
	}
	d := time.Duration(n) * time.Second / time.Duration(w.cfg.KBps*1024)
	w.mu.Lock()
	now := time.Now()
	start := w.free
	if start.Before(now) {
		start = now
	}
	end := start.Add(d)
	w.free = end
	w.mu.Unlock()
	time.Sleep(time.Until(end))
}

// propagate models one direction's propagation delay.
func (w *wanKV) propagate() {
	if w.cfg.RTT > 0 {
		time.Sleep(w.cfg.RTT / 2)
	}
}

// Do sends the submission's request frame up the link and its response
// frame back down, each of exactly the length the wire carries
// (frameBytes).
func (w *wanKV) Do(tenant string, ops []Op) error {
	verb := byte(verbRead)
	if len(ops) > 0 {
		verb = verbOf(ops)
	}
	up, _ := frameBytes(verb, len(ops), dataWidth(ops), len(tenant))
	w.propagate()
	w.link(up)
	err := w.kv.Do(tenant, ops)
	_, down := frameBytes(verb, len(ops), dataWidth(ops), len(tenant))
	w.link(down)
	w.propagate()
	return err
}

// dataWidth is the widest payload among ops: a write's before it is sent,
// the blocks read after they are served.
func dataWidth(ops []Op) int {
	width := 0
	for _, op := range ops {
		width = max(width, len(op.Data))
	}
	return width
}

var _ KV = (*wanKV)(nil)
