package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tcoram/internal/server"
)

// Hops at which the benchmark records spans. The program has no spans of
// its own yet, so these are the layer boundaries visible from outside: the
// client's call, and every server.Service method of the routing proxy and of
// each store.
type hop uint8

const (
	hopClient hop = iota
	hopProxy
	hopNode
	numHops
)

var hopNames = [numHops]string{"client", "proxy.service", "node.service"}

// span is one timed call. Spans of one request share Op where the hop
// allows it: in process the store's span runs inside the client's span on
// the same goroutine and carries its id; across TCP the protocol has no
// field for one, so proxy and daemon spans have Op 0 and are related to
// their parents on aggregates only.
type span struct {
	Hop        hop
	Verb       opKind
	Src        uint16 // client index, or node index for daemon-side spans
	Op         uint32
	Start, End int64 // ns since the tracer's epoch
}

// spanBuf collects the spans of one source. Client-side buffers have one
// writer; daemon-side buffers are shared by the connection handlers.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

// tracer holds every span of a run in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enabled is safe on a nil tracer, which is what an untraced run has.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// traceFileSpans caps the spans written per run: aggregates are computed
// over all of them, the file is for reading individual requests.
const traceFileSpans = 60_000

// write dumps up to traceFileSpans spans as JSON lines, an equal share from
// every source so that each hop is in the file.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, b := range t.bufs {
		for _, s := range b.spans[:min(len(b.spans), traceFileSpans/len(t.bufs))] {
			rec := struct {
				Name    string `json:"name"`
				Verb    string `json:"verb"`
				Src     uint16 `json:"src"`
				Op      uint32 `json:"op,omitempty"`
				Parent  string `json:"parent,omitempty"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{hopNames[s.Hop], s.Verb.String(), s.Src, s.Op, "", s.Start, s.End}
			if s.Hop != hopClient && s.Op != 0 {
				rec.Parent = hopNames[hopClient]
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedService wraps a server.Service and records one span per call. It is
// what a traced run hands to server.Serve (proxy and daemons) and what an
// in-process client calls in place of the store.
type tracedService struct {
	inner server.Service
	t     *tracer
	buf   *spanBuf
	hop   hop
	src   uint16
	op    *uint32 // the in-process caller's current op id, nil across TCP
}

func (s *tracedService) record(verb opKind, start int64) {
	sp := span{Hop: s.hop, Verb: verb, Src: s.src, Start: start, End: s.t.now()}
	if s.op != nil {
		sp.Op = *s.op
	}
	s.buf.add(sp)
}

func (s *tracedService) Read(addr uint64) ([]byte, error) { return s.TenantRead("", addr) }

func (s *tracedService) Write(addr uint64, data []byte) error { return s.TenantWrite("", addr, data) }

func (s *tracedService) TenantRead(tenant string, addr uint64) ([]byte, error) {
	if !s.t.enabled() {
		return s.inner.TenantRead(tenant, addr)
	}
	start := s.t.now()
	data, err := s.inner.TenantRead(tenant, addr)
	s.record(opRead, start)
	return data, err
}

func (s *tracedService) TenantWrite(tenant string, addr uint64, data []byte) error {
	if !s.t.enabled() {
		return s.inner.TenantWrite(tenant, addr, data)
	}
	start := s.t.now()
	err := s.inner.TenantWrite(tenant, addr, data)
	s.record(opWrite, start)
	return err
}

func (s *tracedService) ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error) {
	if !s.t.enabled() {
		return s.inner.ReadBatch(tenant, addrs)
	}
	start := s.t.now()
	res, err := s.inner.ReadBatch(tenant, addrs)
	s.record(opBatch, start)
	return res, err
}

func (s *tracedService) ServiceStats() (server.Stats, error) { return s.inner.ServiceStats() }

// countingConn counts the bytes a client puts on and takes off the wire —
// the frame sizes a network observer sees.
type countingConn struct {
	net.Conn
	tx, rx *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(uint64(n))
	return n, err
}
