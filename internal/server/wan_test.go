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

// readLinkTime is how long one read of a 64-byte block — its request and
// its response frame — takes to serialize through a 10 KB/s link: 116
// bytes, about 11 ms.
func readLinkTime() time.Duration {
	req, resp := frameBytes(verbRead, 1, 64, 0)
	return time.Duration(req+resp) * time.Second / (10 * 1024)
}

// TestWANShapingDelaysOps: a wrapped operation pays at least the configured
// RTT plus its serialization time on the emulated link.
func TestWANShapingDelaysOps(t *testing.T) {
	kv := WrapWAN(&instantKV{data: make([]byte, 64)}, WANConfig{KBps: 10, RTT: 20 * time.Millisecond})

	t0 := time.Now()
	if err := kv.Do("", []Op{{Addr: 1}}); err != nil {
		t.Fatal(err)
	}
	if elapsed, want := time.Since(t0), 20*time.Millisecond+readLinkTime(); elapsed < want {
		t.Errorf("shaped read took %v, want ≥ %v (RTT + serialization)", elapsed, want)
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
	// Three reads' frames share one link.
	if elapsed, want := time.Since(t0), n*readLinkTime(); elapsed < want {
		t.Errorf("%d concurrent shaped reads took %v, want ≥ %v on a serial link", n, elapsed, want)
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
