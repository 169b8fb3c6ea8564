package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// This file is the client-side resilience layer: an error taxonomy that
// separates transport failures (retry somewhere, or again later) from
// application rejections (retrying cannot help), a jittered exponential
// backoff, and a self-redialing client. The cluster router builds its
// replica failover on IsRecoverable and Backoff; RetryClient is the
// single-connection composition for callers that talk to one daemon (or one
// proxy) and want a dropped connection to heal instead of surfacing.

// IsRecoverable reports whether err says nothing about the request itself,
// so the same operation may succeed on a replica or a fresh connection: the
// connection died, was refused, timed out or carried a malformed frame, or
// the answer was coded
// CodeUnavailable (transient by definition) or CodeStoreClosed (a daemon
// shutting down closes its listener, then its store, so open connections
// answer store_closed while every replica still serves). Other rejections
// (out of range, oversized payload, tenant over budget) are not: every
// replica would answer the same way.
func IsRecoverable(err error) bool {
	switch ErrorCode(err) {
	case CodeUnavailable, CodeStoreClosed:
		return true
	case CodeInternal: // uncoded: recoverable only as a transport failure
	default:
		return false // nil, or a rejection every replica would repeat
	}
	switch {
	case errors.Is(err, ErrClientClosed),
		errors.Is(err, errBadFrame),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}

// Backoff is a bounded exponential backoff policy. The zero value is usable
// and gives 10 ms · 2^attempt, capped at 1 s.
type Backoff struct {
	// Base is the delay before the first retry (default 10 ms).
	Base time.Duration
	// Max caps the delay (default 1 s).
	Max time.Duration
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// RetryConfig shapes a RetryClient's redial loop.
type RetryConfig struct {
	// Attempts is the total number of tries per operation, including the
	// first (default 4).
	Attempts int
	// Backoff paces the redials.
	Backoff Backoff
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts == 0 {
		c.Attempts = 4
	}
	return c
}

// RetryClient is a Client that survives its connection: every operation that
// fails with a recoverable (transport) error tears the connection down,
// redials with backoff, and retries, up to the configured attempt budget.
// Application errors pass through untouched on the first occurrence.
//
// It satisfies KV like Client does, so loadgen and the e2e harnesses can
// drive a daemon through it unchanged. It is safe for concurrent use; a
// redial is performed by one caller while the others wait.
type RetryClient struct {
	addr string
	cfg  RetryConfig

	mu      sync.Mutex
	cl      *Client
	closed  bool
	redials uint64
}

// RetryDial connects to a daemon at addr with redial-on-failure semantics.
// The initial dial itself is retried under the same policy, so a client can
// be created while its daemon is still coming up.
func RetryDial(addr string, cfg RetryConfig) (*RetryClient, error) {
	rc := &RetryClient{addr: addr, cfg: cfg.withDefaults()}
	var lastErr error
	for attempt := 0; attempt < rc.cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(rc.cfg.Backoff.Delay(attempt - 1))
		}
		cl, err := Dial(addr)
		if err == nil {
			rc.cl = cl
			return rc, nil
		}
		lastErr = err
		if !IsRecoverable(err) {
			break
		}
	}
	return nil, lastErr
}

// Redials returns how many times the client replaced a failed connection —
// zero on a healthy link, the observable cost of each disruption survived.
func (c *RetryClient) Redials() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials
}

// current returns the live connection, dialing one if the previous died.
func (c *RetryClient) current() (*Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.cl != nil {
		return c.cl, nil
	}
	cl, err := Dial(c.addr)
	if err != nil {
		return nil, err
	}
	c.cl = cl
	c.redials++
	return cl, nil
}

// discard drops a connection that just failed, unless another caller
// already replaced it.
func (c *RetryClient) discard(failed *Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cl == failed && failed != nil {
		failed.Close()
		c.cl = nil
	}
}

// do runs op against the current connection, redialing on recoverable
// failures until the attempt budget runs out.
func (c *RetryClient) do(op func(*Client) error) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Backoff.Delay(attempt - 1))
		}
		cl, err := c.current()
		if err == ErrClientClosed && c.isClosed() {
			return err // deliberately closed: retrying cannot reopen it
		}
		if err == nil {
			err = op(cl)
		}
		if !IsRecoverable(err) {
			return err // nil, or a rejection the connection carried fine
		}
		c.discard(cl)
		lastErr = err
	}
	return lastErr
}

func (c *RetryClient) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Do runs one submission, retrying whole-submission recoverable failures
// across connections; per-op failures inside an accepted batch pass
// through. A retried write may be applied twice when the first connection
// died after the daemon served it — idempotent by construction, since a
// block write is a full overwrite.
func (c *RetryClient) Do(tenant string, ops []Op) error {
	return c.do(func(cl *Client) error { return cl.Do(tenant, ops) })
}

// Start sends one submission on the current connection, dialing a new one
// if the last died, and returns it in flight (see Client.Start). It makes
// one attempt and no retry: a recoverable failure comes back from Wait,
// which discards the connection so the next call redials — the same thing
// Do does with an Attempts of 1. ops belong to the call until Wait
// returns.
func (c *RetryClient) Start(tenant string, ops []Op) Call {
	cl, err := c.current()
	if err != nil {
		return Call{err: err}
	}
	call := cl.Start(tenant, ops)
	call.retry, call.cl = c, cl
	return call
}

// Stats fetches the server's counters, retrying across connections.
func (c *RetryClient) Stats() (st Stats, err error) {
	err = c.do(func(cl *Client) error {
		st, err = cl.Stats()
		return err
	})
	return st, err
}

// Ping round-trips a no-op, retrying across connections.
func (c *RetryClient) Ping() error {
	return c.do(func(cl *Client) error { return cl.Ping() })
}

// Close tears down the current connection; a closed client stays closed.
// Close is not survived by a redial — the next operation resurrecting the
// connection would turn every leaked client into a live socket — so later
// calls fail with ErrClientClosed like they do on a plain Client.
func (c *RetryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cl == nil {
		return nil
	}
	err := c.cl.Close()
	c.cl = nil
	return err
}

var _ KV = (*RetryClient)(nil)
