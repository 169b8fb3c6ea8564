package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"sync"
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

	out := make(chan *call, connConcurrency)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := bufio.NewWriter(conn)
		var frame []byte // the response being encoded, reused
		dead := false
		for c := range out {
			// After a write failure, keep draining so dispatch workers
			// blocked on `out` can finish and HandleConn can tear down —
			// exiting here would deadlock them against a full channel.
			if dead {
				continue
			}
			frame = c.appendResponse(frame[:0])
			_, err := bw.Write(frame)
			// Flush when the queue is momentarily empty so pipelined bursts
			// batch into few syscalls but single responses aren't delayed.
			if err == nil && len(out) == 0 {
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

	var inflight sync.WaitGroup
	sem := make(chan struct{}, connConcurrency)
	fr := newFrameReader(conn)
	var tenant string // the last tag seen, kept while it repeats
	for {
		h, members, err := fr.next()
		if err != nil {
			// The peer hung up, or sent bytes that cannot be delimited:
			// either way nothing more can be answered.
			break
		}
		if string(h.tenant) != tenant {
			tenant = string(h.tenant)
		}
		c := &call{id: h.id, verb: h.verb, tenant: tenant}
		if c.err = c.decode(h, members); c.err != nil || c.verb == verbPing {
			out <- c
			continue
		}
		// Data ops block on slots, and a router's stats poll fans out over
		// the network, so both run off the read loop — a slow shard or node
		// must not stall pipelined requests behind it.
		sem <- struct{}{}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			c.serve(kv, svc)
			out <- c
		}()
	}
	inflight.Wait()
	close(out)
	writer.Wait()
}

// call is one request in flight on a connection, from its decoded frame to
// its answer. A single-op verb's op lives in the call itself, so serving a
// read or a write allocates no op slice.
type call struct {
	id     uint64
	verb   byte
	tenant string
	ops    []Op
	one    [1]Op
	err    error  // refuses the whole request
	stats  []byte // a stats answer's JSON
}

// decode checks a request's members against its header and decodes them
// into c.ops. An error answers the request under its own id.
func (c *call) decode(h frameHeader, members []byte) error {
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
	c.ops = c.one[:]
	if h.verb == verbBatchRead {
		c.ops = make([]Op, h.count)
	}
	for i := range c.ops {
		m := members[i*(8+h.width):]
		c.ops[i].Addr = binary.BigEndian.Uint64(m)
		if h.verb == verbWrite {
			c.ops[i].Write = true
			c.ops[i].Data = append([]byte(nil), m[8:8+h.width]...)
		}
	}
	return nil
}

// serve answers a stats request, or makes one Do call for a data request:
// a refused submission or a single-op verb's failed op fails the whole
// request, a batch_read member's failure only its own result.
func (c *call) serve(kv KV, svc Service) {
	if c.verb == verbStats {
		stats, err := svc.ServiceStats()
		if err == nil {
			c.stats, err = json.Marshal(stats)
		}
		c.err = err
		return
	}
	c.err = kv.Do(c.tenant, c.ops)
	if c.err == nil && c.verb != verbBatchRead {
		c.err = c.ops[0].Err
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
