package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
)

// maxLineBytes bounds one protocol line; a write of a 64 KB block base64-
// encodes to well under this.
const maxLineBytes = 1 << 20

// connConcurrency bounds the number of in-flight requests the daemon will
// hold per connection; beyond it, reading from the connection pauses
// (backpressure on top of the per-shard queues).
const connConcurrency = 256

// Service is what a JSON-lines daemon serves: the per-verb data methods and
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

// Serve accepts connections on l and speaks the JSON-lines protocol against
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

	out := make(chan Response, connConcurrency)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := bufio.NewWriter(conn)
		enc := json.NewEncoder(bw)
		dead := false
		for resp := range out {
			// After a write failure, keep draining so dispatch workers
			// blocked on `out` can finish and HandleConn can tear down —
			// exiting here would deadlock them against a full channel.
			if dead {
				continue
			}
			if err := enc.Encode(&resp); err != nil {
				dead = true
				conn.Close() // also unblocks the scanner
				continue
			}
			// Flush when the queue is momentarily empty so pipelined bursts
			// batch into few syscalls but single responses aren't delayed.
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					dead = true
					conn.Close()
					continue
				}
			}
		}
		if !dead {
			bw.Flush()
		}
	}()

	var inflight sync.WaitGroup
	sem := make(chan struct{}, connConcurrency)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		c := new(call)
		if err := json.Unmarshal(line, &c.req); err != nil {
			// Always answer malformed lines with ID 0: req may hold a
			// partially-decoded ID from before the parse error, and echoing
			// it would attribute this failure to some other pipelined
			// request. Clients must treat id 0 as "a line you sent was
			// unparseable" (the client never issues id 0 itself).
			out <- Response{ID: 0, OK: false, Err: fmt.Sprintf("server: bad request: %v", err), Code: CodeBadRequest}
			continue
		}
		switch c.req.Op {
		case OpPing:
			out <- Response{ID: c.req.ID, OK: true}
		case OpStats, OpRead, OpWrite, OpBatchRead:
			// Data ops block on slots, and a router's stats poll fans out
			// over the network, so both run off the scan loop — a slow shard
			// or node must not stall pipelined requests behind it.
			sem <- struct{}{}
			inflight.Add(1)
			go func(c *call) {
				defer inflight.Done()
				defer func() { <-sem }()
				out <- c.serve(kv, svc)
			}(c)
		default:
			out <- Response{ID: c.req.ID, OK: false, Err: fmt.Sprintf("server: unknown op %q", c.req.Op), Code: CodeUnknownOp}
		}
	}
	if err := sc.Err(); err != nil {
		// Scanner failures (oversized line, mid-stream read error) used to
		// close the connection silently; send a final zero-ID diagnostic so
		// the peer learns why its connection died.
		out <- Response{ID: 0, OK: false, Err: fmt.Sprintf("server: connection failed: %v", err), Code: CodeBadRequest}
	}
	inflight.Wait()
	close(out)
	writer.Wait()
}

// call is one request in flight on a connection: the decoded line and the
// op a single-op verb decodes into, allocated together so serving a read or
// a write costs no allocation of its own.
type call struct {
	req Request
	one [1]Op
}

// serve answers a stats request, or decodes a data request into ops, makes
// one Do call and encodes the outcome: a refused submission or a single-op
// verb's failed op fails the whole response, a batch_read member's failure
// only its own result.
func (c *call) serve(kv KV, svc Service) Response {
	req := &c.req
	var ops []Op
	switch req.Op {
	case OpStats:
		stats, err := svc.ServiceStats()
		if err != nil {
			return errResponse(req.ID, err)
		}
		return Response{ID: req.ID, OK: true, Stats: &stats}
	case OpBatchRead:
		ops = make([]Op, len(req.Addrs))
		for i, a := range req.Addrs {
			ops[i].Addr = a
		}
	default:
		c.one[0] = Op{Addr: req.Addr, Write: req.Op == OpWrite, Data: req.Data}
		ops = c.one[:]
	}
	if err := kv.Do(req.Tenant, ops); err != nil {
		return errResponse(req.ID, err)
	}
	if req.Op != OpBatchRead {
		switch {
		case ops[0].Err != nil:
			return errResponse(req.ID, ops[0].Err)
		case req.Op == OpRead:
			return Response{ID: req.ID, OK: true, Data: ops[0].Data}
		}
		return Response{ID: req.ID, OK: true}
	}
	wire := make([]WireResult, len(ops))
	for i, op := range ops {
		if op.Err != nil {
			wire[i] = WireResult{OK: false, Err: op.Err.Error(), Code: ErrorCode(op.Err)}
		} else {
			wire[i] = WireResult{OK: true, Data: op.Data}
		}
	}
	return Response{ID: req.ID, OK: true, Results: wire}
}

// IsClosedErr reports whether err is the uninteresting error a listener
// returns when shut down deliberately.
func IsClosedErr(err error) bool {
	return err == nil || errors.Is(err, net.ErrClosed)
}
