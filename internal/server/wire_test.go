package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
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

// frame assembles a golden frame from its fields in hex, after the length
// prefix, which it fills in.
func frame(fields ...string) []byte {
	body, err := hex.DecodeString(strings.Join(fields, ""))
	if err != nil {
		panic(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// text is a failure text's field: u16 length, then the bytes.
func text(s string) string {
	return hex.EncodeToString(binary.BigEndian.AppendUint16(nil, uint16(len(s)))) + hex.EncodeToString([]byte(s))
}

// zeros64 is a 64-byte block never written, in hex.
var zeros64 = strings.Repeat("00", 64)

// The golden request frames: what Client.Do puts on the wire for a read, a
// tenant-tagged write and a 3-address batch. Fields: version, id, verb,
// count, width, tenant length and tag, then the members.
var goldenRequests = [][]byte{
	frame("01", "0000000000000001", "01", "0001", "00000000", "00", "0000000000000011"),
	frame("01", "0000000000000002", "02", "0001", "00000040", "04", "61636d65", "0000000000000011", hex.EncodeToString(goldenBlock())),
	frame("01", "0000000000000003", "03", "0003", "00000000", "04", "61636d65", "0000000000000011", "0000000000000021", "0000000000000002"),
}

// goldenPing is the ping request that follows them, id 4.
var goldenPing = frame("01", "0000000000000004", "05", "0000", "00000000", "00")

// The old JSON-lines protocol's request lines for the same three calls:
// a fixture the version byte refuses.
var goldenJSONLines = []string{
	`{"id":1,"op":"read","addr":17}`,
	`{"id":2,"op":"write","addr":17,"data":"AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8gISIjJCUmJygpKissLS4vMDEyMzQ1Njc4OTo7PD0+Pw==","tenant":"acme"}`,
	`{"id":3,"op":"batch_read","addrs":[17,33,2],"tenant":"acme"}`,
}

// readRawFrame reads one length-prefixed frame as raw bytes.
func readRawFrame(r io.Reader) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(pre[:])
	if n > maxFrameBytes {
		return nil, errors.New("frame length over the limit")
	}
	b := make([]byte, 4+n)
	copy(b, pre[:])
	_, err := io.ReadFull(r, b[4:])
	return b, err
}

// TestWireGolden pins the frame protocol byte for byte on both sides.
// Client.Do writes the golden request frames, and refuses a mixed or
// multi-write submission, an overlong tenant tag and an overlong payload
// before anything reaches the wire. HandleConn over
// a Store answers each request frame with the golden response — an
// out-of-range single op fails the whole response, an out-of-range batch
// member only its own result, and a frame whose members do not fit its
// header is answered under its own id. The old protocol's JSON lines are
// refused by the version byte: the connection closes with no answer.
func TestWireGolden(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		a, b := net.Pipe()
		cl := NewClient(a)
		defer cl.Close()
		got := make(chan []byte, 8)
		go func() {
			// Answer each frame with a canned response so the call returns.
			answers := [][]byte{
				frame("01", "0000000000000001", "01", "0001", "00000001", "00", "0100", "00"),
				frame("01", "0000000000000002", "02", "0001", "00000000", "00", "0100"),
				frame("01", "0000000000000003", "03", "0003", "00000000", "00", "0100", "0100", "0100"),
				frame("01", "0000000000000004", "05", "0000", "00000000", "00"),
			}
			defer close(got)
			for _, ans := range answers {
				req, err := readRawFrame(b)
				if err != nil {
					return
				}
				got <- req
				b.Write(ans)
			}
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
		// A tenant tag too long for its length byte, or a payload too long
		// for a frame, is refused before the wire too.
		if err := cl.Do(strings.Repeat("t", maxTenantBytes+1), []Op{{Addr: 1}}); ErrorCode(err) != CodeBadRequest {
			t.Errorf("%d-byte tenant tag: err %v, want code %s", maxTenantBytes+1, err, CodeBadRequest)
		}
		if err := cl.Write(1, make([]byte, maxFrameBytes)); ErrorCode(err) != CodeOversized {
			t.Errorf("%d-byte payload: err %v, want code %s", maxFrameBytes, err, CodeOversized)
		}
		// The next frame on the wire is the ping: nothing of the refused
		// submissions was sent, and they spent no request id.
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		want := append(append([][]byte(nil), goldenRequests...), goldenPing)
		i := 0
		for req := range got {
			if i < len(want) && !bytes.Equal(req, want[i]) {
				t.Errorf("request frame %d:\n got %x\nwant %x", i, req, want[i])
			}
			i++
		}
		if i != len(want) {
			t.Errorf("client wrote %d frames, want %d", i, len(want))
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
		block := hex.EncodeToString(goldenBlock())
		oversized := strings.Repeat("00", 65)
		var big []string
		for i := 0; i < 17; i++ {
			big = append(big, "0000000000000001")
		}
		outOfRange := text("server: address 99999 out of range (64 blocks)")
		cases := []struct {
			name      string
			req, resp []byte
		}{
			{"read", goldenRequests[0], frame("01", "0000000000000001", "01", "0001", "00000040", "00", "0100", zeros64)},
			{"write", goldenRequests[1], frame("01", "0000000000000002", "02", "0001", "00000000", "00", "0100")},
			{"batch", goldenRequests[2], frame("01", "0000000000000003", "03", "0003", "00000040", "00", "0100", block, "0100", zeros64, "0100", zeros64)},
			{"read out of range",
				frame("01", "0000000000000004", "01", "0001", "00000000", "00", "000000000001869f"),
				frame("01", "0000000000000004", "ff", "0001", "00000000", "00", "0003", outOfRange)},
			{"batch member out of range",
				frame("01", "0000000000000005", "03", "0002", "00000000", "00", "0000000000000005", "000000000001869f"),
				frame("01", "0000000000000005", "03", "0002", "00000040", "00", "0100", zeros64, "0003", zeros64, outOfRange)},
			{"write out of range",
				frame("01", "0000000000000006", "02", "0001", "00000001", "00", "000000000001869f", "00"),
				frame("01", "0000000000000006", "ff", "0001", "00000000", "00", "0003", outOfRange)},
			{"empty batch",
				frame("01", "0000000000000007", "03", "0000", "00000000", "00"),
				frame("01", "0000000000000007", "ff", "0001", "00000000", "00", "0001", text("server: empty batch"))},
			{"batch over the store's limit",
				frame("01", "0000000000000008", "03", "0011", "00000000", "00", strings.Join(big, "")),
				frame("01", "0000000000000008", "ff", "0001", "00000000", "00", "0005", text("server: batch of 17 addresses exceeds the store's limit of 16"))},
			{"unknown verb",
				frame("01", "0000000000000009", "09", "0000", "00000000", "00"),
				frame("01", "0000000000000009", "ff", "0001", "00000000", "00", "0002", text("server: unknown verb 9"))},
			{"ping",
				frame("01", "000000000000000a", "05", "0000", "00000000", "00"),
				frame("01", "000000000000000a", "05", "0000", "00000000", "00")},
			{"oversized write",
				frame("01", "000000000000000b", "02", "0001", "00000041", "00", "0000000000000003", oversized),
				frame("01", "000000000000000b", "ff", "0001", "00000000", "00", "0004", text("server: payload is 65 bytes, block is 64"))},
			{"oversized write out of range",
				frame("01", "000000000000000c", "02", "0001", "00000041", "00", "000000000001869f", oversized),
				frame("01", "000000000000000c", "ff", "0001", "00000000", "00", "0004", text("server: payload is 65 bytes, block is 64"))},
			{"members short of the header",
				frame("01", "000000000000000d", "01", "0001", "00000000", "00", "00000011"),
				frame("01", "000000000000000d", "ff", "0001", "00000000", "00", "0001", text("server: bad request: 4 member bytes for 1 members of width 0"))},
		}
		for _, tc := range cases {
			if _, err := c.Write(tc.req); err != nil {
				t.Fatal(err)
			}
			got, err := readRawFrame(c)
			if err != nil {
				t.Fatalf("%s: no response: %v", tc.name, err)
			}
			if !bytes.Equal(got, tc.resp) {
				t.Errorf("%s:\n got %x\nwant %x", tc.name, got, tc.resp)
			}
		}
	})

	t.Run("json", func(t *testing.T) {
		for _, line := range goldenJSONLines {
			c, s := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				HandleConn(s, fuzzService{instantKV{data: make([]byte, 64)}})
			}()
			go c.Write([]byte(line + "\n"))
			if n, err := c.Read(make([]byte, 64)); err != io.EOF {
				t.Errorf("%s: read %d bytes, err %v; want the connection closed unanswered", line, n, err)
			}
			<-done
			c.Close()
		}
	})
}

// TestFrameSizeIsPublic: every request and successful response frame is
// exactly frameBytes long, whatever its id, addresses, tenant bytes and
// data bytes — a function of (verb, member count, BlockBytes, tenant
// length) alone, which is all a network observer learns from frame sizes.
// Failure texts (error frames, failed batch members) are exempt.
func TestFrameSizeIsPublic(t *testing.T) {
	addrs := []uint64{0, 17, math.MaxInt64}
	fills := []byte{0x00, 0x5a, 0xff}
	for _, blockBytes := range []int{1, 64, 4096} {
		for _, tenant := range []string{"", "acme", "tenant-b"} {
			for _, k := range []int{1, 2, 8, MaxBatchAddrs} {
				for i, addr := range addrs {
					block := bytes.Repeat([]byte{fills[i]}, blockBytes)
					ops := make([]Op, k)
					for j := range ops {
						ops[j] = Op{Addr: addr + uint64(j)%2, Data: block}
					}
					id := []uint64{1, 1 << 40, math.MaxUint64}[i]
					verbs := []byte{verbBatchRead}
					if k == 1 {
						verbs = []byte{verbRead, verbWrite}
					}
					for _, verb := range verbs {
						if verb == verbWrite {
							ops[0].Write = true
						}
						wantReq, wantResp := frameBytes(verb, k, blockBytes, len(tenant))
						if got := len(appendRequest(nil, id, verb, tenant, ops)); got != wantReq {
							t.Errorf("verb %d k=%d block %d tenant %q addr %d: request is %d bytes, frameBytes says %d",
								verb, k, blockBytes, tenant, addr, got, wantReq)
						}
						c := &call{id: id, verb: verb, tenant: tenant, ops: ops}
						if got := len(c.appendResponse(nil)); got != wantResp {
							t.Errorf("verb %d k=%d block %d tenant %q addr %d: response is %d bytes, frameBytes says %d",
								verb, k, blockBytes, tenant, addr, got, wantResp)
						}
					}
				}
			}
		}
	}
	for _, verb := range []byte{verbPing, verbStats} {
		req, resp := frameBytes(verb, 0, 0, 0)
		if got := len(appendRequest(nil, 7, verb, "", nil)); got != req {
			t.Errorf("verb %d: request is %d bytes, frameBytes says %d", verb, got, req)
		}
		if got := len((&call{id: 7, verb: verb}).appendResponse(nil)); verb == verbPing && got != resp {
			t.Errorf("ping: response is %d bytes, frameBytes says %d", got, resp)
		}
	}
}

// shortBatchService is a Service without a Do of its own whose ReadBatch
// answers with delta results more than it was asked for.
type shortBatchService struct {
	fuzzService
	delta int
}

func (s shortBatchService) ReadBatch(_ string, addrs []uint64) ([]BatchResult, error) {
	res := make([]BatchResult, len(addrs)+s.delta)
	for i := range res {
		res[i].Data = s.data
	}
	return res, nil
}

// TestServiceKVChecksBatchCount: a Service whose ReadBatch answers with one
// result too few or too many has its submission refused with CodeInternal —
// not served with a member silently missing, and not a panic that takes the
// daemon down. The connection keeps serving after either.
func TestServiceKVChecksBatchCount(t *testing.T) {
	for _, delta := range []int{-1, +1} {
		svc := shortBatchService{fuzzService{instantKV{data: make([]byte, 64)}}, delta}
		a, b := net.Pipe()
		go HandleConn(b, struct{ Service }{svc}) // hide Do: serve through serviceKV
		cl := NewClient(a)
		_, err := cl.ReadBatch("", []uint64{1, 2, 3})
		if ErrorCode(err) != CodeInternal {
			t.Errorf("ReadBatch answering %+d results: err %v, want code %s", delta, err, CodeInternal)
		}
		if err := cl.Ping(); err != nil {
			t.Errorf("ping after a miscounted batch (%+d): %v", delta, err)
		}
		cl.Close()
	}
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

// frameIDs lists the ids of the frames input delimits, up to the first
// bytes that cannot be delimited.
func frameIDs(input []byte) map[uint64]bool {
	ids := map[uint64]bool{}
	fr := newFrameReader(bytes.NewReader(input))
	for {
		h, _, err := fr.next()
		if err != nil {
			return ids
		}
		ids[h.id] = true
	}
}

// wireSeeds seeds both fuzz targets: the golden frames, the golden frames
// run together, a truncated frame, a frame shorter than its header, an
// oversized length, a frame whose members do not fit its header, and the
// old protocol's JSON lines.
func wireSeeds(f *testing.F, golden [][]byte) {
	for _, fr := range golden {
		f.Add(fr)
	}
	f.Add(bytes.Join(golden, nil))
	f.Add(golden[1][:len(golden[1])/2])
	f.Add(frame("01", "00"))
	f.Add(append([]byte{0x7f, 0xff, 0xff, 0xff, frameVersion}, bytes.Repeat([]byte("x"), 64)...))
	f.Add(frame("01", "0000000000000001", "01", "0001", "00000000", "00", "00000011"))
	f.Add([]byte(strings.Join(goldenJSONLines, "\n") + "\n"))
}

// FuzzServeConn feeds arbitrary bytes to HandleConn as one connection's
// input. Whatever arrives, the handler must not panic, must return once the
// input ends, and must write only well-framed responses, each under the id
// of a request frame it was sent.
func FuzzServeConn(f *testing.F) {
	wireSeeds(f, append(append([][]byte(nil), goldenRequests...),
		frame("01", "0000000000000009", "04", "0000", "00000000", "00"), goldenPing))
	f.Fuzz(func(t *testing.T, input []byte) {
		sent := frameIDs(input)
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
		fr := newFrameReader(bytes.NewReader(conn.out.Bytes()))
		for {
			h, _, err := fr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("response stream does not frame: %v", err)
			}
			if !sent[h.id] {
				t.Fatalf("response id %d answers no request sent", h.id)
			}
		}
	})
}

// FuzzClientConn feeds arbitrary bytes to a Client as its peer's answers
// to three pending calls (ids 1, 2 and 3). Whatever arrives, the client must
// not panic, every call must return once the peer hangs up, a call may
// succeed or carry a remote rejection only on a frame of its own id, and
// every other call must fail with a recoverable transport error.
func FuzzClientConn(f *testing.F) {
	wireSeeds(f, [][]byte{
		frame("01", "0000000000000001", "01", "0001", "00000040", "00", "0100", zeros64),
		frame("01", "0000000000000002", "02", "0001", "00000000", "00", "0100"),
		frame("01", "0000000000000003", "03", "0003", "00000040", "00", "0100", zeros64, "0003", zeros64, "0100", zeros64, text("out of range")),
		frame("01", "0000000000000002", "ff", "0001", "00000000", "00", "0006", text("closed")),
		frame("01", "0000000000000009", "05", "0000", "00000000", "00"),
	})
	f.Fuzz(func(t *testing.T, input []byte) {
		a, b := net.Pipe()
		cl := NewClient(a)
		defer cl.Close()
		type result struct {
			id  uint64
			err error
		}
		calls := []func() error{
			func() error { _, err := cl.Read(17); return err },
			func() error { return cl.Write(17, goldenBlock()) },
			func() error { _, err := cl.ReadBatch("acme", []uint64{17, 33, 2}); return err },
		}
		results := make(chan result, len(calls))
		// One call at a time, each once the last one's request is on the
		// wire, so they hold ids 1, 2 and 3.
		for i, call := range calls {
			go func() { results <- result{uint64(i + 1), call()} }()
			if _, err := readRawFrame(b); err != nil {
				t.Fatal(err)
			}
		}
		answered := frameIDs(input)
		go func() {
			b.Write(input)
			b.Close()
		}()
		for range calls {
			select {
			case r := <-results:
				var remote *RemoteError
				switch {
				case r.err == nil || errors.As(r.err, &remote):
					if !answered[r.id] {
						t.Fatalf("call %d completed (err %v) on no frame of its id", r.id, r.err)
					}
				case !IsRecoverable(r.err):
					t.Fatalf("call %d failed with %v, not a recoverable transport error", r.id, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a call is still pending after the peer hung up")
			}
		}
	})
}
