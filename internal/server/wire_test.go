package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// goldenBlock is the payload of the golden write: bytes 0..63.
func goldenBlock() []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// zeroBlock64 is the base64 of a 64-byte block never written.
var zeroBlock64 = base64.StdEncoding.EncodeToString(make([]byte, 64))

// The golden request lines: what Client.Do puts on the wire for a read, a
// tenant-tagged write and a 3-address batch — byte for byte what the
// per-verb client methods sent before Do existed.
var goldenRequests = []string{
	`{"id":1,"op":"read","addr":17}`,
	`{"id":2,"op":"write","addr":17,"data":"AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8gISIjJCUmJygpKissLS4vMDEyMzQ1Njc4OTo7PD0+Pw==","tenant":"acme"}`,
	`{"id":3,"op":"batch_read","addrs":[17,33,2],"tenant":"acme"}`,
}

// TestWireGolden pins the protocol across the move to one request shape.
// Client.Do writes the same request lines the per-verb calls wrote, and
// refuses a mixed or multi-write submission before anything reaches the
// wire. HandleConn over a Store answers each line with the same bytes as
// before — including an out-of-range single op, which fails the whole
// response, and an out-of-range batch member, which gets its own code.
func TestWireGolden(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		a, b := net.Pipe()
		cl := NewClient(a)
		defer cl.Close()
		got := make(chan string, 8)
		go func() {
			// Answer each line with a canned response so the call returns.
			sc := bufio.NewScanner(b)
			answers := []string{
				`{"id":1,"ok":true,"data":"AA=="}`,
				`{"id":2,"ok":true}`,
				`{"id":3,"ok":true,"results":[{"ok":true},{"ok":true},{"ok":true}]}`,
				`{"id":4,"ok":true}`,
			}
			for _, ans := range answers {
				if !sc.Scan() {
					close(got)
					return
				}
				got <- sc.Text()
				io.WriteString(b, ans+"\n")
			}
			close(got)
		}()
		if err := cl.Do("", []Op{{Addr: 17}}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Do("acme", []Op{{Addr: 17, Write: true, Data: goldenBlock()}}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Do("acme", []Op{{Addr: 17}, {Addr: 33}, {Addr: 2}}); err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]Op{
			{{Addr: 1}, {Addr: 2, Write: true, Data: []byte("x")}},
			{{Addr: 1, Write: true}, {Addr: 2, Write: true}},
		} {
			if err := cl.Do("", bad); ErrorCode(err) != CodeBadRequest {
				t.Errorf("submission %+v: err %v, want code %s", bad, err, CodeBadRequest)
			}
		}
		// The next line on the wire is the ping: nothing of the refused
		// submissions was sent, and they spent no request id.
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		want := append(append([]string(nil), goldenRequests...), `{"id":4,"op":"ping"}`)
		i := 0
		for line := range got {
			if i < len(want) && line != want[i] {
				t.Errorf("request line %d:\n got %s\nwant %s", i, line, want[i])
			}
			i++
		}
		if i != len(want) {
			t.Errorf("client wrote %d lines, want %d", i, len(want))
		}
	})

	t.Run("server", func(t *testing.T) {
		st, err := New(Config{Shards: 2, Blocks: 64, BlockBytes: 64, Unpaced: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c, s := net.Pipe()
		defer c.Close()
		go HandleConn(s, st)
		block64 := base64.StdEncoding.EncodeToString(goldenBlock())
		oversized := base64.StdEncoding.EncodeToString(make([]byte, 65))
		big := strings.TrimSuffix(strings.Repeat("1,", 17), ",")
		cases := []struct{ req, resp string }{
			{goldenRequests[0], `{"id":1,"ok":true,"data":"` + zeroBlock64 + `"}`},
			{goldenRequests[1], `{"id":2,"ok":true}`},
			{goldenRequests[2], `{"id":3,"ok":true,"results":[{"ok":true,"data":"` + block64 + `"},{"ok":true,"data":"` + zeroBlock64 + `"},{"ok":true,"data":"` + zeroBlock64 + `"}]}`},
			{`{"id":4,"op":"read","addr":99999}`, `{"id":4,"ok":false,"err":"server: address 99999 out of range (64 blocks)","code":"out_of_range"}`},
			{`{"id":5,"op":"batch_read","addrs":[5,99999]}`, `{"id":5,"ok":true,"results":[{"ok":true,"data":"` + zeroBlock64 + `"},{"ok":false,"err":"server: address 99999 out of range (64 blocks)","code":"out_of_range"}]}`},
			{`{"id":6,"op":"write","addr":99999,"data":"AA=="}`, `{"id":6,"ok":false,"err":"server: address 99999 out of range (64 blocks)","code":"out_of_range"}`},
			{`{"id":7,"op":"batch_read"}`, `{"id":7,"ok":false,"err":"server: empty batch","code":"bad_request"}`},
			{`{"id":8,"op":"batch_read","addrs":[` + big + `]}`, `{"id":8,"ok":false,"err":"server: batch of 17 addresses exceeds the store's limit of 16","code":"batch_too_large"}`},
			{`{"id":9,"op":"nope"}`, `{"id":9,"ok":false,"err":"server: unknown op \"nope\"","code":"unknown_op"}`},
			{`{"id":10,"op":"ping"}`, `{"id":10,"ok":true}`},
			{`{"id":11,"op":"write","addr":3,"data":"` + oversized + `"}`, `{"id":11,"ok":false,"err":"server: payload is 65 bytes, block is 64","code":"oversized_payload"}`},
			{`{"id":12,"op":"write","addr":99999,"data":"` + oversized + `"}`, `{"id":12,"ok":false,"err":"server: payload is 65 bytes, block is 64","code":"oversized_payload"}`},
			{`not json`, `{"id":0,"ok":false,"err":"server: bad request: invalid character 'o' in literal null (expecting 'u')","code":"bad_request"}`},
		}
		sc := bufio.NewScanner(c)
		for _, tc := range cases {
			if _, err := io.WriteString(c, tc.req+"\n"); err != nil {
				t.Fatal(err)
			}
			if !sc.Scan() {
				t.Fatalf("no response to %s: %v", tc.req, sc.Err())
			}
			if got := sc.Text(); got != tc.resp {
				t.Errorf("response to %s:\n got %s\nwant %s", tc.req, got, tc.resp)
			}
		}
	})
}

// fuzzService answers every shape CheckOps accepts at once.
type fuzzService struct{ instantKV }

func (s fuzzService) Do(tenant string, ops []Op) error {
	if err := CheckOps(ops, MaxBatchAddrs); err != nil {
		return err
	}
	return s.instantKV.Do(tenant, ops)
}
func (s fuzzService) Read(uint64) ([]byte, error)               { return s.data, nil }
func (s fuzzService) Write(uint64, []byte) error                { return nil }
func (s fuzzService) TenantRead(string, uint64) ([]byte, error) { return s.data, nil }
func (s fuzzService) TenantWrite(string, uint64, []byte) error  { return nil }
func (s fuzzService) ReadBatch(tenant string, addrs []uint64) ([]BatchResult, error) {
	return ReadBatchVia(s, tenant, addrs)
}
func (s fuzzService) ServiceStats() (Stats, error) { return Stats{Blocks: 64, BlockBytes: 64}, nil }

// scriptConn is a connection whose peer sends a fixed script and then hangs
// up, recording everything written back.
type scriptConn struct {
	net.Conn
	in  io.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// FuzzServeConn feeds arbitrary bytes to HandleConn as one connection's
// input. Whatever arrives, the handler must not panic, must return once the
// input ends, and must write only lines that decode as a Response whose id
// is 0 (a line it could not parse) or the id of a request that was sent.
func FuzzServeConn(f *testing.F) {
	for _, line := range goldenRequests {
		f.Add([]byte(line + "\n"))
	}
	f.Add([]byte(strings.Join(goldenRequests, "\n") + "\n{\"id\":9,\"op\":\"stats\"}\n{\"id\":10,\"op\":\"ping\"}\n"))
	f.Add([]byte("{\"id\":4,\"op\":\"read\",\"addr\n"))                           // malformed
	f.Add(append(bytes.Repeat([]byte("x"), maxLineBytes+1), "\n{\"id\":5}\n"...)) // oversized
	f.Fuzz(func(t *testing.T, input []byte) {
		sent := map[uint64]bool{0: true}
		sc := bufio.NewScanner(bytes.NewReader(input))
		sc.Buffer(make([]byte, 64<<10), maxLineBytes)
		for sc.Scan() {
			var req Request
			if json.Unmarshal(sc.Bytes(), &req) == nil {
				sent[req.ID] = true
			}
		}
		conn := &scriptConn{in: bytes.NewReader(input)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			HandleConn(conn, fuzzService{instantKV{data: make([]byte, 64)}})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("HandleConn did not return after its input ended")
		}
		for _, line := range bytes.Split(conn.out.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("response line %q does not decode: %v", line, err)
			}
			if !sent[resp.ID] {
				t.Fatalf("response id %d answers no request sent", resp.ID)
			}
		}
	})
}
