package server

import (
	"sync"
	"testing"
	"time"
)

// instantKV answers everything immediately — the backend under the WAN
// wrapper, so every millisecond a test measures belongs to the shaping.
type instantKV struct{ data []byte }

func (k *instantKV) Do(_ string, ops []Op) error {
	for i := range ops {
		if !ops[i].Write {
			ops[i].Data = k.data
		}
	}
	return nil
}

// TestWANShapingDelaysOps: a wrapped operation pays at least the configured
// RTT plus its serialization time on the emulated link.
func TestWANShapingDelaysOps(t *testing.T) {
	kv := WrapWAN(&instantKV{data: make([]byte, 64)}, WANConfig{KBps: 10, RTT: 20 * time.Millisecond})

	// One read moves ~200 wire bytes (64 B request, base64 response) over a
	// 10 KB/s link ≈ 19 ms of serialization, plus the 20 ms RTT.
	t0 := time.Now()
	if err := kv.Do("", []Op{{Addr: 1}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 30*time.Millisecond {
		t.Errorf("shaped read took %v, want ≥ 30ms (RTT + serialization)", elapsed)
	}
}

// TestWANShapingSerializesLink: the emulated link is a single serial
// resource — concurrent operations queue on it instead of overlapping, so
// N ops cost at least N × their byte time even when issued together.
func TestWANShapingSerializesLink(t *testing.T) {
	kv := WrapWAN(&instantKV{data: make([]byte, 64)}, WANConfig{KBps: 10, RTT: 0})

	const n = 3
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := kv.Do("", []Op{{Addr: 1}}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Each read serializes ~19 ms of bytes; three of them share one link.
	if elapsed := time.Since(t0); elapsed < 45*time.Millisecond {
		t.Errorf("%d concurrent shaped reads took %v, want ≥ 45ms on a serial link", n, elapsed)
	}
}

// TestWANDisabledIsPassThrough: the zero config wraps nothing.
func TestWANDisabledIsPassThrough(t *testing.T) {
	base := &instantKV{data: make([]byte, 8)}
	if got := WrapWAN(base, WANConfig{}); got != KV(base) {
		t.Error("zero WANConfig did not pass the KV through unwrapped")
	}
	if (WANConfig{}).Enabled() {
		t.Error("zero WANConfig reports enabled")
	}
	if !(WANConfig{RTT: time.Millisecond}).Enabled() {
		t.Error("RTT-only WANConfig reports disabled")
	}
	if !(WANConfig{KBps: 1}).Enabled() {
		t.Error("bandwidth-only WANConfig reports disabled")
	}
}
