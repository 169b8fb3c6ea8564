package server

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestWaitOnClosedClient: a call in flight when its client closes, and one
// started after, both come back from Wait as ErrClientClosed — recoverable,
// so a router fails over on it — and so does a refusal Start knew at once.
func TestWaitOnClosedClient(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	defer srvSide.Close()
	go io.Copy(io.Discard, srvSide) // takes every request, answers none
	cl := NewClient(cliSide)

	inFlight := cl.Start("", []Op{{Addr: 1}})
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inFlight.Wait(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Wait on a call the close cut off returned %v, want ErrClientClosed", err)
	}
	if err := cl.Start("", []Op{{Addr: 2}}).Wait(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Wait on a call started after Close returned %v, want ErrClientClosed", err)
	}
	if err := cl.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Ping after Close returned %v, want ErrClientClosed", err)
	}
	if !IsRecoverable(ErrClientClosed) {
		t.Error("ErrClientClosed classified fatal")
	}
	if err := cl.Start("", nil).Wait(); ErrorCode(err) != CodeBadRequest {
		t.Errorf("an empty submission's Wait returned %v, want code %s", err, CodeBadRequest)
	}
}

// TestRetryClientRedialsAfterDeathInFlight: a connection that dies between
// Start and Wait fails that call with a recoverable error — Start and Wait
// make one attempt — and the RetryClient's next call redials and is served.
func TestRetryClientRedialsAfterDeathInFlight(t *testing.T) {
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
	// The first connection swallows requests until it is killed; every
	// later one is a daemon's.
	first := make(chan net.Conn, 1)
	go func() {
		for n := 0; ; n++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if n == 0 {
				first <- conn
				go io.Copy(io.Discard, conn)
				continue
			}
			go HandleConn(conn, st)
		}
	}()

	rc, err := RetryDial(l.Addr().String(), RetryConfig{Attempts: 3, Backoff: Backoff{Base: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	call := rc.Start("", []Op{{Addr: 3}})
	(<-first).Close()
	err = call.Wait()
	if err == nil {
		t.Fatal("a call whose connection died before its answer succeeded")
	}
	if !IsRecoverable(err) {
		t.Fatalf("a connection dying in flight gave %v, classified fatal", err)
	}
	if rc.Redials() != 0 {
		t.Fatalf("Start/Wait redialed %d times within one attempt", rc.Redials())
	}

	ops := []Op{{Addr: 3}}
	if err := rc.Start("", ops).Wait(); err != nil {
		t.Fatalf("the call after the death: %v", err)
	}
	if err := CheckPayload(ops[0].Data, 3); err != nil {
		t.Fatal(err)
	}
	if rc.Redials() != 1 {
		t.Errorf("the call after the death redialed %d times, want 1", rc.Redials())
	}
}
