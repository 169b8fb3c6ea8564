package main

import (
	"io"
	"sync/atomic"
	"testing"
	"time"
)

func TestOracle(t *testing.T) {
	o := newOracle(16, 2)
	buf := make([]byte, 64)
	zero := make([]byte, 64)
	if !o.checkRead(3, o.beginRead(3), zero) {
		t.Error("a never-written block must read as zeroes")
	}
	seq := o.beginWrite(3, buf)
	o.endWrite(3, seq, true)
	first := append([]byte(nil), buf...)
	if !o.checkRead(3, o.beginRead(3), first) {
		t.Error("the acknowledged write was rejected")
	}
	if o.checkRead(3, o.beginRead(3), zero) {
		t.Error("zeroes accepted after an acknowledged write")
	}
	if o.checkRead(5, o.beginRead(5), first) {
		t.Error("block 3's payload accepted for block 5")
	}
	flipped := append([]byte(nil), first...)
	flipped[20] ^= 1
	if o.checkRead(3, o.beginRead(3), flipped) {
		t.Error("a payload with a flipped seq byte was accepted")
	}
	seq = o.beginWrite(3, buf)
	o.endWrite(3, seq, true)
	if o.checkRead(3, o.beginRead(3), first) {
		t.Error("a stale payload was accepted after a newer acknowledged write")
	}
	// A read that began before the second write was acknowledged may see
	// either version.
	if !o.checkRead(3, 1, first) || !o.checkRead(3, 1, buf) {
		t.Error("a read overlapping a write must accept both versions")
	}
}

// fault is one planned misbehaviour: flip one bit of the 50th block read
// back, or acknowledge the 50th write, and every later write to its
// address, without storing it.
type fault struct {
	flip, drop    bool
	reads, writes atomic.Int64
	lost          atomic.Int64 // address whose writes are swallowed, +1
}

// faulty is a client handle that carries out a fault.
type faulty struct {
	kv
	f *fault
}

func (c faulty) Read(addr uint64) ([]byte, error) {
	data, err := c.kv.Read(addr)
	if c.f.flip && c.f.reads.Add(1) == 50 && len(data) > 0 {
		data[17] ^= 0x40
	}
	return data, err
}

func (c faulty) Write(addr uint64, data []byte) error {
	if c.f.drop {
		if c.f.writes.Add(1) == 50 {
			c.f.lost.Store(int64(addr) + 1)
		}
		if c.f.lost.Load() == int64(addr)+1 {
			return nil
		}
	}
	return c.kv.Write(addr, data)
}

// TestFaultyServiceFailsTheRun is the negative oracle: failed_frac can be
// non-zero, and when it is the run exits non-zero.
func TestFaultyServiceFailsTheRun(t *testing.T) {
	w, _ := workloadByName("flat-mem")
	base := runOpts{Seed: 1, Seconds: 0.3, BlocksLog2: 8, Warmup: 10 * time.Millisecond, Setups: 3, Recovers: 1, Scratch: t.TempDir()}

	if code := runOne(io.Discard, w, base); code != 0 {
		t.Fatalf("a correct service exits %d", code)
	}
	for name, f := range map[string]*fault{"flipped byte": {flip: true}, "dropped write": {drop: true}} {
		opts := base
		opts.fault = func(h kv) kv { return faulty{h, f} }
		res, err := runWorkload(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedFrac() <= 0 || res.ok() {
			t.Errorf("%s: failed_frac = %v, want > 0", name, res.FailedFrac())
		}
		f.reads.Store(0)
		f.writes.Store(0)
		f.lost.Store(0)
		if code := runOne(io.Discard, w, opts); code == 0 {
			t.Errorf("%s: the run exits 0", name)
		}
	}
}
