package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
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

// Client speaks the daemon's frame protocol over one TCP connection.
// It is safe for concurrent use: calls from many goroutines pipeline onto
// the single connection and are matched back by request id, so a pool of
// worker goroutines sharing one Client saturates the server the same way
// independent connections would.
type Client struct {
	conn net.Conn

	wmu   sync.Mutex // serializes frame writes
	frame []byte     // the request being encoded, reused under wmu

	mu      sync.Mutex
	pending map[uint64]*pending
	err     error // set once the reader exits
	closed  bool  // Close was called: every failure from here on is ErrClientClosed
	nextID  atomic.Uint64
}

// pending is one request awaiting its response: where the read loop
// decodes the answer — the caller's ops, or its Stats — and the channel it
// hands the caller the outcome on: nil, the server's *RemoteError, or the
// connection-level error that killed the client first. The two kinds of
// error are kept apart so a transport failure surfaces as itself
// (recoverable, retry elsewhere) instead of as a remote rejection. Pooled,
// so a round trip allocates neither the record nor its channel.
type pending struct {
	verb  byte
	ops   []Op
	stats *Stats
	done  chan error
}

var pendingPool = sync.Pool{New: func() any { return &pending{done: make(chan error, 1)} }}

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
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]*pending),
	}
	go c.readLoop()
	return c
}

// readLoop delivers responses to waiting callers until the connection dies,
// then fails everything still pending.
func (c *Client) readLoop() {
	fr := newFrameReader(c.conn)
	var err error
	for err == nil {
		var h frameHeader
		var members []byte
		if h, members, err = fr.next(); err != nil {
			break
		}
		c.mu.Lock()
		p, ok := c.pending[h.id]
		delete(c.pending, h.id)
		c.mu.Unlock()
		if !ok {
			err = badFrame("a response to id %d, which has no request pending", h.id)
			break
		}
		outcome, broken := p.decode(h, members)
		if broken != nil {
			outcome, err = broken, broken
		}
		p.done <- outcome
	}
	if errors.Is(err, errBadFrame) {
		// Skipping a frame that cannot be trusted could leave its caller
		// blocked forever: tear the connection down and fail everything.
		c.conn.Close()
	}
	c.mu.Lock()
	if err == io.EOF || c.closed {
		err = ErrClientClosed
	}
	c.err = err
	for id, p := range c.pending {
		delete(c.pending, id)
		p.done <- err
	}
	c.mu.Unlock()
}

// decode reads a response into p's destination and returns the outcome for
// p's caller. A non-nil broken means the frame cannot be the answer to p's
// request, and the connection is not to be trusted any more.
func (p *pending) decode(h frameHeader, members []byte) (outcome, broken error) {
	switch {
	case h.verb == verbError:
		if h.count != 1 || h.width != 0 {
			return nil, badFrame("an error response of %d members of width %d", h.count, h.width)
		}
	case h.verb != p.verb:
		return nil, badFrame("a verb %d response to a verb %d request", h.verb, p.verb)
	case p.verb == verbPing || p.verb == verbStats:
		if h.count != 0 || h.width != 0 || (p.verb == verbPing && len(members) != 0) {
			return nil, badFrame("a verb %d response carrying members", h.verb)
		}
		if p.verb == verbStats {
			if err := json.Unmarshal(members, p.stats); err != nil {
				return nil, badFrame("stats body: %v", err)
			}
		}
		return nil, nil
	case h.count != len(p.ops) || (h.verb == verbWrite && h.width != 0):
		return nil, badFrame("%d members of width %d answer %d ops of verb %d", h.count, h.width, len(p.ops), h.verb)
	}

	// A failed single-op verb (and an error response) refuses the whole
	// call; a batch member's failure is its own. A served block is copied
	// out of the reused frame buffer into the op's own Data when it has the
	// room, and into one arena shared by the response's other blocks when
	// it does not.
	stride := 2 + h.width
	if len(members) < h.count*stride {
		return nil, badFrame("%d bytes carry no %d members of width %d", len(members), h.count, h.width)
	}
	texts := members[h.count*stride:]
	var arena []byte
	for i := 0; i < h.count; i++ {
		m := members[i*stride : (i+1)*stride]
		switch status, code := m[0], m[1]; {
		case status == 1 && code == 0 && h.verb != verbError:
			dst := p.ops[i].Data
			p.ops[i].Data, p.ops[i].Err = nil, nil
			if h.verb != verbWrite {
				if cap(dst) < h.width {
					if len(arena) < h.width {
						arena = make([]byte, (h.count-i)*h.width)
					}
					dst, arena = arena, arena[h.width:]
				}
				p.ops[i].Data = dst[:h.width:h.width]
				copy(p.ops[i].Data, m[2:])
			}
		case status == 0 && code != 0 && int(code) < len(wireCodes):
			if len(texts) < 2 || len(texts) < 2+int(binary.BigEndian.Uint16(texts)) {
				return nil, badFrame("member %d's failure text overruns the frame", i)
			}
			n := int(binary.BigEndian.Uint16(texts))
			err := &RemoteError{Msg: string(texts[2 : 2+n]), Code: wireCodes[code]}
			texts = texts[2+n:]
			if h.verb == verbBatchRead {
				p.ops[i].Data, p.ops[i].Err = nil, err
			} else {
				outcome = err
			}
		default:
			return nil, badFrame("member %d has status %d and code %d", i, status, code)
		}
	}
	if len(texts) != 0 {
		return nil, badFrame("%d bytes trail the members", len(texts))
	}
	return outcome, nil
}

// Call is one submission in flight, from Start to Wait. It is a small value
// that holds the client's pooled request record until Wait hands it back,
// so a call in flight allocates nothing. Wait must be called exactly once.
type Call struct {
	p   *pending
	err error // the outcome, when Start already knew it
	// retry and cl are set by RetryClient.Start: a recoverable failure
	// discards cl, so retry's next call redials.
	retry *RetryClient
	cl    *Client
}

// Start sends one submission as Do does and returns without waiting for
// the answer, so one goroutine can have calls in flight on many clients at
// once; Wait collects each outcome. ops belong to the call until Wait
// returns: the read loop decodes the answer into them. A refusal Do would
// return without sending (a bad shape, an oversized tenant tag or payload,
// a closed client) comes back from Wait.
func (c *Client) Start(tenant string, ops []Op) Call {
	if err := checkRequest(tenant, ops); err != nil {
		return Call{err: err}
	}
	return c.start(verbOf(ops), tenant, ops, nil)
}

// checkRequest refuses a submission the wire cannot carry, before Start
// takes a record for it.
func checkRequest(tenant string, ops []Op) error {
	if err := CheckOps(ops, MaxBatchAddrs); err != nil {
		return err
	}
	if len(tenant) > maxTenantBytes {
		return Errorf(CodeBadRequest, "server: a tenant tag of %d bytes exceeds the wire's %d", len(tenant), maxTenantBytes)
	}
	if ops[0].Write {
		if req, _ := frameBytes(verbWrite, 1, len(ops[0].Data), len(tenant)); req > maxFrameBytes {
			return Errorf(CodeOversized, "server: a payload of %d bytes exceeds the wire's %d-byte frame", len(ops[0].Data), maxFrameBytes)
		}
	}
	return nil
}

// start sends one request whose answer the read loop decodes into ops or
// stats.
func (c *Client) start(verb byte, tenant string, ops []Op, stats *Stats) Call {
	p := pendingPool.Get().(*pending)
	p.verb, p.ops, p.stats = verb, ops, stats
	id := c.nextID.Add(1)

	c.mu.Lock()
	if err := c.err; err != nil || c.closed {
		if c.closed {
			err = ErrClientClosed
		}
		c.mu.Unlock()
		p.release()
		return Call{err: err}
	}
	c.pending[id] = p
	c.mu.Unlock()

	// No bufio here: every request is written at once, as one frame.
	c.wmu.Lock()
	c.frame = appendRequest(c.frame[:0], id, verb, tenant, ops)
	_, err := c.conn.Write(c.frame)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		_, unclaimed := c.pending[id]
		delete(c.pending, id)
		if c.closed {
			err = ErrClientClosed
		}
		c.mu.Unlock()
		if !unclaimed {
			<-p.done // the read loop took p first: let it finish with p
		}
		p.release()
		return Call{err: err}
	}
	return Call{p: p}
}

// release returns p to the pool, dropping the caller's ops and stats.
func (p *pending) release() {
	p.ops, p.stats = nil, nil
	pendingPool.Put(p)
}

// Wait blocks until the call's answer is in and returns what Do would
// have, handing the call's record back to the client. A call started by a
// RetryClient that failed recoverably also discards its connection, so the
// RetryClient's next call redials.
func (call Call) Wait() error {
	err := call.err
	if p := call.p; p != nil {
		err = <-p.done
		p.release()
	}
	if call.retry != nil && IsRecoverable(err) {
		call.retry.discard(call.cl)
	}
	return err
}

// Do sends one submission as the verb its shape names — read, write or
// batch_read — so the wire carries exactly what per-verb calls would. A
// failed single-op verb comes back as Do's error (a *RemoteError), like a
// refused submission; a batch_read member's failure lands in its op as a
// *RemoteError. Transport failures come back as themselves, recoverable in
// the cluster taxonomy. Do is Start followed by Wait.
func (c *Client) Do(tenant string, ops []Op) error {
	return c.Start(tenant, ops).Wait()
}

// Read fetches a block.
func (c *Client) Read(addr uint64) ([]byte, error) {
	ops := oneOps.take()
	ops[0].Addr = addr
	err := c.Do("", ops[:])
	data := ops[0].Data
	oneOps.put(ops)
	return data, err
}

// Write stores a block.
func (c *Client) Write(addr uint64, data []byte) error {
	ops := oneOps.take()
	ops[0] = Op{Addr: addr, Write: true, Data: data}
	err := c.Do("", ops[:])
	oneOps.put(ops)
	return err
}

// ReadBatch fetches addrs as one batch of reads, with index-aligned results.
func (c *Client) ReadBatch(tenant string, addrs []uint64) ([]BatchResult, error) {
	return ReadBatchVia(c, tenant, addrs)
}

// Stats fetches the server's per-shard counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.start(verbStats, "", nil, &st).Wait()
	return st, err
}

// Ping round-trips a no-op message.
func (c *Client) Ping() error {
	return c.start(verbPing, "", nil, nil).Wait()
}

// Close tears down the connection; pending and later calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
