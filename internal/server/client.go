package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// ErrClientClosed is returned for calls on a closed (or failed) client.
var ErrClientClosed = errors.New("server: client closed")

// RemoteError is an application-level failure the daemon reported in a
// well-formed response: the connection worked, the server answered, and the
// answer was "no" (address out of range, oversized payload, store closed…).
// Distinguishing it from transport failures is what the cluster's failover
// taxonomy runs on: most RemoteErrors would just repeat on a replica, while
// a transport failure says nothing about the request and everything about
// the connection (IsRecoverable). Code carries the response's
// machine-readable code (the Code* constants) so callers branch on it
// instead of string-matching Msg.
type RemoteError struct {
	Msg  string
	Code string
}

func (e *RemoteError) Error() string { return "server: remote error: " + e.Msg }

// Client speaks the daemon's JSON-lines protocol over one TCP connection.
// It is safe for concurrent use: calls from many goroutines pipeline onto
// the single connection and are matched back by request id, so a pool of
// worker goroutines sharing one Client saturates the server the same way
// independent connections would.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes encoder writes
	bw  *bufio.Writer
	enc *json.Encoder

	mu      sync.Mutex
	pending map[uint64]chan pendingResp
	err     error // set once the reader exits
	nextID  atomic.Uint64
}

// pendingResp is what the read loop delivers to a waiting caller: either the
// server's response or the connection-level error that killed the client
// before a response arrived. The two are kept apart so do() can surface a
// transport failure as itself (recoverable, retry elsewhere) instead of
// disguising it as a remote rejection.
type pendingResp struct {
	resp    Response
	connErr error
}

// Dial connects to a daemon at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (test hook for net.Pipe).
func NewClient(conn net.Conn) *Client {
	bw := bufio.NewWriter(conn)
	c := &Client{
		conn:    conn,
		bw:      bw,
		enc:     json.NewEncoder(bw),
		pending: make(map[uint64]chan pendingResp),
	}
	go c.readLoop()
	return c
}

// readLoop delivers responses to waiting callers until the connection dies,
// then fails everything still pending.
func (c *Client) readLoop() {
	var parseErr error
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			// One garbled line means the framing can no longer be trusted;
			// skipping it would leave its caller blocked forever. Tear the
			// connection down and fail everything pending instead.
			parseErr = fmt.Errorf("server: malformed response line: %w", err)
			break
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- pendingResp{resp: resp}
		}
	}
	err := parseErr
	if err == nil {
		err = sc.Err()
	}
	if err == nil {
		err = ErrClientClosed
	}
	if parseErr != nil {
		c.conn.Close()
	}
	c.mu.Lock()
	c.err = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- pendingResp{connErr: err}
	}
	c.mu.Unlock()
}

// do sends one request and waits for its response. Transport failures (the
// connection died before or instead of answering) come back as the
// underlying error — recoverable in the cluster taxonomy — while a
// well-formed negative answer comes back as a *RemoteError.
func (c *Client) do(req Request) (Response, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan pendingResp, 1)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := c.enc.Encode(&req)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return Response{}, err
	}

	pr := <-ch
	if pr.connErr != nil {
		return Response{}, pr.connErr
	}
	if !pr.resp.OK {
		return pr.resp, &RemoteError{Msg: pr.resp.Err, Code: pr.resp.Code}
	}
	return pr.resp, nil
}

// Do sends one submission as the verb its shape names — read, write or
// batch_read — so the wire carries exactly what per-verb calls would. A
// failed response to a single-op verb cannot be told apart from a refused
// submission, so it comes back as Do's error (a *RemoteError); a batch_read
// member's failure lands in its op as a *RemoteError. Transport failures
// come back as themselves, recoverable in the cluster taxonomy.
func (c *Client) Do(tenant string, ops []Op) error {
	if err := CheckOps(ops, MaxBatchAddrs); err != nil {
		return err
	}
	req := Request{Op: OpRead, Addr: ops[0].Addr, Tenant: tenant}
	switch {
	case ops[0].Write:
		req.Op, req.Data = OpWrite, ops[0].Data
	case len(ops) > 1:
		req.Op, req.Addr, req.Addrs = OpBatchRead, 0, addrsOf(ops)
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	switch {
	case req.Op == OpWrite:
		ops[0].Err = nil
	case req.Op == OpRead:
		ops[0].Data, ops[0].Err = resp.Data, nil
	case len(resp.Results) != len(ops):
		return fmt.Errorf("server: batch response carries %d results for %d addresses", len(resp.Results), len(ops))
	default:
		for i, r := range resp.Results {
			ops[i].Data, ops[i].Err = r.Data, nil
			if !r.OK {
				ops[i].Err = &RemoteError{Msg: r.Err, Code: r.Code}
			}
		}
	}
	return nil
}

// Read fetches a block.
func (c *Client) Read(addr uint64) ([]byte, error) {
	ops := [1]Op{{Addr: addr}}
	err := c.Do("", ops[:])
	return ops[0].Data, err
}

// Write stores a block.
func (c *Client) Write(addr uint64, data []byte) error {
	return c.Do("", []Op{{Addr: addr, Write: true, Data: data}})
}

// ReadBatch fetches addrs as one batch of reads, with index-aligned results.
func (c *Client) ReadBatch(tenant string, addrs []uint64) ([]BatchResult, error) {
	return ReadBatchVia(c, tenant, addrs)
}

// Stats fetches the server's per-shard counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.do(Request{Op: OpStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("server: stats response missing payload")
	}
	return *resp.Stats, nil
}

// Ping round-trips a no-op message.
func (c *Client) Ping() error {
	_, err := c.do(Request{Op: OpPing})
	return err
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}
