package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestIsRecoverable pins the error taxonomy the cluster's failover runs on:
// transport-level failures and the coded node conditions (unavailable,
// store_closed) are recoverable (the same request may succeed on a replica
// or a fresh connection), application-level rejections are not (every
// replica would answer the same way).
func TestIsRecoverable(t *testing.T) {
	recoverable := []error{
		ErrClientClosed,
		net.ErrClosed,
		io.EOF,
		io.ErrUnexpectedEOF,
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		syscall.EPIPE,
		fmt.Errorf("dial: %w", syscall.ECONNREFUSED), // wrapped
		&net.OpError{Op: "read", Err: errors.New("timeout")},
		// Coded conditions of the node, not the request: nobody reachable
		// holds the data, or the store is shutting down behind a live
		// listener. Both count on either side of a proxy hop.
		&RemoteError{Msg: "unavailable", Code: CodeUnavailable},
		&RemoteError{Msg: "store closed", Code: CodeStoreClosed},
		ErrClosed,
		fmt.Errorf("op failed: %w", &RemoteError{Msg: "store closed", Code: CodeStoreClosed}),
	}
	for _, err := range recoverable {
		if !IsRecoverable(err) {
			t.Errorf("IsRecoverable(%v) = false, want true", err)
		}
	}
	fatal := []error{
		nil,
		&RemoteError{Msg: "address 9 out of range (4 blocks)"},
		fmt.Errorf("op failed: %w", &RemoteError{Msg: "store closed"}), // wrapped
		errors.New("something else entirely"),
		&RemoteError{Msg: "address 9 out of range (4 blocks)", Code: CodeOutOfRange},
		Errorf(CodeTenantBudget, "tenant over budget"),
	}
	for _, err := range fatal {
		if IsRecoverable(err) {
			t.Errorf("IsRecoverable(%v) = true, want false", err)
		}
	}
}

// TestClientErrorTaxonomy: a well-formed negative response surfaces as a
// *RemoteError while a connection death surfaces as the transport error —
// the distinction every failover decision rests on.
func TestClientErrorTaxonomy(t *testing.T) {
	st, err := New(Config{Shards: 1, Blocks: 16, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, st)

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Read(999) // out of range: the daemon answers "no"
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("out-of-range read returned %T (%v), want *RemoteError", err, err)
	}
	if IsRecoverable(err) {
		t.Error("an application rejection classified recoverable — failover would retry it forever")
	}

	cl2, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl2.conn.Close() // the transport dies under the client
	_, err = cl2.Read(0)
	if err == nil {
		t.Fatal("read over a dead connection succeeded")
	}
	if errors.As(err, &remote) {
		t.Fatalf("connection death disguised as a remote rejection: %v", err)
	}
	if !IsRecoverable(err) {
		t.Errorf("connection death classified fatal: %v", err)
	}
}

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	if (Backoff{}).Delay(0) <= 0 {
		t.Error("zero-value backoff has no delay")
	}
}

// TestRetryClientSurvivesConnectionLoss: killing the client's TCP connection
// mid-session costs one redial, not a failed operation — the property that
// lets loadgen ride out a daemon/proxy restart.
func TestRetryClientSurvivesConnectionLoss(t *testing.T) {
	st, err := New(Config{Shards: 1, Blocks: 16, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, st)

	rc, err := RetryDial(l.Addr().String(), RetryConfig{Attempts: 3, Backoff: Backoff{Base: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	buf := make([]byte, 64)
	FillPayload(buf, 3, 1, 1)
	if err := rc.Do("", []Op{{Addr: 3, Write: true, Data: buf}}); err != nil {
		t.Fatal(err)
	}

	// Sever the live connection out from under the client.
	rc.mu.Lock()
	rc.cl.conn.Close()
	rc.mu.Unlock()

	ops := []Op{{Addr: 3}}
	if err := rc.Do("", ops); err != nil {
		t.Fatalf("read after connection loss: %v", err)
	}
	if err := CheckPayload(ops[0].Data, 3); err != nil {
		t.Fatal(err)
	}
	if rc.Redials() == 0 {
		t.Error("connection loss survived without a recorded redial")
	}

	// Application rejections pass through without consuming the redial
	// budget's sleep path.
	var remote *RemoteError
	if err := rc.Do("", []Op{{Addr: 999}}); !errors.As(err, &remote) {
		t.Errorf("out-of-range read through RetryClient returned %v, want *RemoteError", err)
	}
}

// TestRetryClientClosedStaysClosed: Close is not survived by a redial — a
// closed client must not resurrect its socket on the next call.
func TestRetryClientClosedStaysClosed(t *testing.T) {
	st, err := New(Config{Shards: 1, Blocks: 16, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, st)

	rc, err := RetryDial(l.Addr().String(), RetryConfig{Attempts: 3, Backoff: Backoff{Base: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Do("", []Op{{Addr: 0}}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("read on a closed RetryClient returned %v, want ErrClientClosed", err)
	}
	if rc.Redials() != 0 {
		t.Errorf("closed client redialed %d times", rc.Redials())
	}
}

// TestRetryDialWaitsForServer: the initial dial retries under the same
// backoff policy, so a client can be created while its daemon is still
// coming up — the harness shape of every multi-process e2e.
func TestRetryDialWaitsForServer(t *testing.T) {
	// Reserve an address, then start listening on it only after a delay.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	st, err := New(Config{Shards: 1, Blocks: 16, BlockBytes: 64, Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; RetryDial will fail and the test report it
		}
		go Serve(l2, st)
	}()

	rc, err := RetryDial(addr, RetryConfig{Attempts: 20, Backoff: Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond}})
	if err != nil {
		t.Fatalf("RetryDial did not outwait daemon startup: %v", err)
	}
	defer rc.Close()
	if err := rc.Ping(); err != nil {
		t.Fatal(err)
	}
}
