package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// connConcurrency bounds the number of in-flight requests the daemon will
// hold per connection; beyond it, reading from the connection pauses
// (backpressure on top of the per-shard queues).
const connConcurrency = 256

// Service is what a daemon serves: the per-verb data methods and
// a stats snapshot. *Store satisfies it directly; the cluster router
// satisfies it by fanning out to remote daemons, which is how cmd/oramproxy
// reuses this entire connection-handling layer unchanged. Both also
// implement KV, and the daemon serves every data request through its Do;
// a Service without one goes through the per-verb methods (serviceKV).
type Service interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
	TenantRead(tenant string, addr uint64) ([]byte, error)
	TenantWrite(tenant string, addr uint64, data []byte) error
	ReadBatch(tenant string, addrs []uint64) ([]BatchResult, error)
	// ServiceStats snapshots the serving-side counters. A local store can
	// never fail here; a router polling remote nodes can, and the error is
	// surfaced to the stats caller instead of tearing down the connection.
	ServiceStats() (Stats, error)
}

// serviceKV adapts a Service that has no Do of its own — a stub, a traced
// wrapper — by the same shape rule: a write and a lone read go to the
// single-op verbs, a batch to ReadBatch.
type serviceKV struct{ Service }

func (s serviceKV) Do(tenant string, ops []Op) error {
	if err := CheckOps(ops, MaxBatchAddrs); err != nil {
		return err
	}
	if ops[0].Write {
		ops[0].Err = s.TenantWrite(tenant, ops[0].Addr, ops[0].Data)
		return nil
	}
	if len(ops) == 1 {
		ops[0].Data, ops[0].Err = s.TenantRead(tenant, ops[0].Addr)
		return nil
	}
	results, err := s.ReadBatch(tenant, addrsOf(ops))
	if err != nil {
		return err
	}
	if len(results) != len(ops) {
		return Errorf(CodeInternal, "server: ReadBatch answered %d addresses with %d results", len(ops), len(results))
	}
	for i, r := range results {
		ops[i].Data, ops[i].Err = r.Data, r.Err
	}
	return nil
}

// addrsOf lists the ops' addresses.
func addrsOf(ops []Op) []uint64 {
	addrs := make([]uint64, len(ops))
	for i, op := range ops {
		addrs[i] = op.Addr
	}
	return addrs
}

// Serve accepts connections on l and speaks the frame protocol against
// svc until the listener is closed (or fails), then returns the accept
// error. Connection handlers drain independently; Serve does not wait for
// them.
func Serve(l net.Listener, svc Service) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go HandleConn(conn, svc)
	}
}

// HandleConn runs one connection to completion. Exported so tests and
// in-process harnesses can serve a net.Pipe or a single accepted socket.
func HandleConn(conn net.Conn, svc Service) {
	defer conn.Close()
	kv, ok := svc.(KV)
	if !ok {
		kv = serviceKV{svc}
	}
	h := &connHandler{
		kv:  kv,
		svc: svc,
		out: make(chan *call, connConcurrency),
		sem: make(chan struct{}, connConcurrency),
		// Room for every call the connection can hold at once: one per
		// semaphore slot in service, and one per out slot awaiting the writer.
		free: make(chan *call, 2*connConcurrency),
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := bufio.NewWriter(conn)
		var frame []byte // the response being encoded, reused
		dead := false
		for c := range h.out {
			// After a write failure, keep draining so dispatch workers
			// blocked on `out` can finish and HandleConn can tear down —
			// exiting here would deadlock them against a full channel.
			if dead {
				continue
			}
			frame = c.appendResponse(frame[:0])
			h.release(c) // encoded: nothing reads the call any more
			_, err := bw.Write(frame)
			// Flush when the queue is momentarily empty so pipelined bursts
			// batch into few syscalls but single responses aren't delayed.
			if err == nil && len(h.out) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				dead = true
				conn.Close() // also unblocks the frame reader
			}
		}
		if !dead {
			bw.Flush()
		}
	}()

	fr := newFrameReader(conn)
	var tenant string // the last tag seen, kept while it repeats
	for {
		fh, members, err := fr.next()
		if err != nil {
			// The peer hung up, or sent bytes that cannot be delimited:
			// either way nothing more can be answered.
			break
		}
		if string(fh.tenant) != tenant {
			tenant = string(fh.tenant)
		}
		c := h.take()
		c.id, c.verb, c.tenant = fh.id, fh.verb, tenant
		if c.err = c.decode(fh, members, int(h.width.Load())); c.err != nil || c.verb == verbPing {
			h.out <- c
			continue
		}
		// Data ops block on slots, and a router's stats poll fans out over
		// the network, so both run off the read loop — a slow shard or node
		// must not stall pipelined requests behind it.
		h.sem <- struct{}{}
		h.inflight.Add(1)
		go c.run()
	}
	h.inflight.Wait()
	close(h.out)
	writer.Wait()
}

// connHandler is one connection's serving state, shared by its read loop,
// its calls and its writer.
type connHandler struct {
	kv       KV
	svc      Service
	out      chan *call    // served calls, in completion order, to the writer
	sem      chan struct{} // bounds the calls being served at once
	inflight sync.WaitGroup
	// free recycles call records, their op slices and buffers with them, so
	// a served request allocates nothing on this side. A buffered channel
	// rather than a sync.Pool, which drops a random share of its Puts under
	// the race detector.
	free chan *call
	// width is the block width the service's reads answer with, learned
	// from the first one served; until it is known a read brings no buffer.
	width atomic.Int64
}

// take returns a recycled call record, or a new one.
func (h *connHandler) take() *call {
	select {
	case c := <-h.free:
		return c
	default:
	}
	c := &call{}
	c.run = func() {
		defer h.inflight.Done()
		defer func() { <-h.sem }()
		c.serve(h)
		h.out <- c
	}
	return c
}

// release returns an answered call to the free list, dropping what it
// holds of the service's or the peer's so the list pins neither.
func (h *connHandler) release(c *call) {
	clear(c.ops)
	c.ops, c.tenant, c.err, c.stats = nil, "", nil, nil
	select {
	case h.free <- c:
	default:
	}
}

// call is one request in flight on a connection, from its decoded frame to
// its answer. Records are recycled per connection, and each keeps the slice
// its ops live in and a buffer for read blocks and a write's payload, so
// serving a request allocates nothing once the connection has warmed up.
type call struct {
	run    func() // serves the call off the read loop; built once per record
	id     uint64
	verb   byte
	tenant string
	ops    []Op
	batch  []Op   // backs ops
	buf    []byte // a write's payload, or the read ops' block buffers
	err    error  // refuses the whole request
	stats  []byte // a stats answer's JSON
}

// decode checks a request's members against its header and decodes them
// into c.ops. A write's payload is copied out of the frame buffer, which
// the next frame reuses, into c.buf; a read op gets a block-wide slice of
// c.buf to be filled in place, once the block width is known (width > 0).
// An error answers the request under its own id.
func (c *call) decode(h frameHeader, members []byte, width int) error {
	switch h.verb {
	case verbPing, verbStats:
		if h.count != 0 || h.width != 0 || len(members) != 0 {
			return Errorf(CodeBadRequest, "server: bad request: verb %d carries no members", h.verb)
		}
		return nil
	case verbRead, verbWrite, verbBatchRead:
	default:
		return Errorf(CodeUnknownOp, "server: unknown verb %d", h.verb)
	}
	switch {
	case h.verb != verbWrite && h.width != 0:
		return Errorf(CodeBadRequest, "server: bad request: a read carries no payload")
	case h.verb != verbBatchRead && h.count != 1:
		return Errorf(CodeBadRequest, "server: bad request: verb %d carries one member, not %d", h.verb, h.count)
	case h.count > MaxBatchAddrs:
		return Errorf(CodeBatchTooLarge, "server: batch of %d addresses exceeds the protocol's limit of %d", h.count, MaxBatchAddrs)
	case len(members) != h.count*(8+h.width):
		return Errorf(CodeBadRequest, "server: bad request: %d member bytes for %d members of width %d", len(members), h.count, h.width)
	}
	if cap(c.batch) < h.count {
		c.batch = make([]Op, h.count)
	}
	c.ops = c.batch[:h.count]
	if h.verb == verbWrite {
		width = h.width
	}
	if n := h.count * width; cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	for i := range c.ops {
		m := members[i*(8+h.width):]
		op := Op{Addr: binary.BigEndian.Uint64(m), Write: h.verb == verbWrite}
		if width > 0 {
			op.Data = c.buf[i*width : (i+1)*width : (i+1)*width]
		}
		if op.Write {
			copy(op.Data, m[8:8+h.width])
		}
		c.ops[i] = op
	}
	return nil
}

// serve answers a stats request, or makes one Do call for a data request:
// a refused submission or a single-op verb's failed op fails the whole
// request, a batch_read member's failure only its own result. A served
// read teaches the connection its block width.
func (c *call) serve(h *connHandler) {
	if c.verb == verbStats {
		stats, err := h.svc.ServiceStats()
		if err == nil {
			c.stats, err = json.Marshal(stats)
		}
		c.err = err
		return
	}
	c.err = h.kv.Do(c.tenant, c.ops)
	if c.err == nil && c.verb != verbBatchRead {
		c.err = c.ops[0].Err
	}
	if c.err == nil && c.verb != verbWrite && c.ops[0].Err == nil {
		if w := int64(len(c.ops[0].Data)); w != h.width.Load() {
			h.width.Store(w)
		}
	}
}

// appendResponse appends the call's response frame to b.
func (c *call) appendResponse(b []byte) []byte {
	if c.err != nil {
		return appendError(b, c.id, c.err)
	}
	start := len(b)
	if c.ops == nil { // ping, stats
		b = appendHeader(b, c.id, c.verb, 0, 0, "")
		return finishFrame(append(b, c.stats...), start)
	}
	width := 0
	if c.verb != verbWrite {
		// Every served member carries a block of one width; a Service that
		// answers with ragged blocks cannot be framed.
		width = -1
		for _, op := range c.ops {
			if op.Err == nil && width < 0 {
				width = len(op.Data)
			} else if op.Err == nil && len(op.Data) != width {
				return appendError(b, c.id, Errorf(CodeInternal, "server: a batch answered with blocks of %d and %d bytes", width, len(op.Data)))
			}
		}
		width = max(width, 0)
	}
	b = appendHeader(b, c.id, c.verb, len(c.ops), width, "")
	for _, op := range c.ops {
		switch {
		case op.Err != nil:
			b = append(append(b, 0, codeByte(ErrorCode(op.Err))), make([]byte, width)...)
		case c.verb == verbWrite:
			b = append(b, 1, 0)
		default:
			b = append(append(b, 1, 0), op.Data...)
		}
	}
	for _, op := range c.ops {
		if op.Err != nil {
			b = appendText(b, op.Err.Error())
		}
	}
	if len(b)-start > maxFrameBytes {
		return appendError(b[:start], c.id, Errorf(CodeInternal, "server: a response of %d bytes exceeds the %d-byte frame limit", len(b)-start, maxFrameBytes))
	}
	return finishFrame(b, start)
}

// IsClosedErr reports whether err is the uninteresting error a listener
// returns when shut down deliberately.
func IsClosedErr(err error) bool {
	return err == nil || errors.Is(err, net.ErrClosed)
}
