package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The daemon protocol is one binary frame per message over TCP, the same
// layout in both directions. Requests carry a client-chosen id that the
// matching response echoes, so clients may pipeline arbitrarily many
// requests per connection; responses arrive in completion order, not
// submission order (ORAM slots on different shards complete independently).
// The cluster routing proxy (cmd/oramproxy) speaks exactly this protocol on
// both faces: clients address it like a daemon, and it fans requests out to
// daemons as a pipelined client, so every wire rule below applies unchanged
// at each hop. Its stats responses aggregate all nodes' shards, each entry
// tagged with its node index.
//
// Every data op may carry a tenant tag, charged by the per-tenant leakage
// accountant; batch_read is the first-class verb of the contact-discovery
// serving path — one request carries up to k addresses, one response carries
// per-address results, and the single-op verbs are its degenerate k=1 form.
// All three decode into one KV.Do submission ([]Op) and back: a single-op
// verb's failure fails the whole response, a batch member's only its own
// result.
//
// A frame is, big-endian, a fixed-offset header
//
//	u32  length of the rest of the frame (at most maxFrameBytes in all)
//	u8   version, frameVersion
//	u64  id
//	u8   verb: verbRead, verbWrite, verbBatchRead, verbStats, verbPing;
//	     a failed response carries verbError
//	u16  member count
//	u32  member width: the data bytes each member moves — a write's
//	     payload up, a read's block down
//	u8   tenant length, then the tenant tag (requests only)
//
// followed by count fixed-width members:
//
//	request   u64 address, then width payload bytes (writes only)
//	response  u8 status (1 ok, 0 failed), u8 code (wireCodes), then width
//	          block bytes (reads only; zeros for a failed member)
//
// and, in a response only, one u16-length-prefixed error text per failed
// member, in member order. A verbError response is one failed member and
// its text; a stats response carries no members and the Stats JSON as the
// rest of its frame. So the only variable-length parts are the tenant tag
// and failure texts, and frameBytes gives every other frame's exact length
// from public parameters alone (docs/LEAKAGE.md, "Wire framing").
//
// The daemon answers a frame whose header parses but whose members do not
// (wrong length for its count and width, a verb it does not speak) with a
// verbError response under the frame's own id. A frame it cannot delimit —
// a wrong version byte, a length over maxFrameBytes, a header cut short —
// ends the connection without an answer; so does the client, failing every
// pending call with a recoverable errBadFrame, on any response that does not
// answer a request it has pending. Failure codes are the constants below;
// clients branch on codes instead of string-matching error prose.
// Machine-readable error codes a failed response or batch member carries.
const (
	// CodeBadRequest: the request was malformed (members that do not fit
	// the frame's count and width, an empty batch).
	CodeBadRequest = "bad_request"
	// CodeUnknownOp: the op verb is not one the daemon speaks.
	CodeUnknownOp = "unknown_op"
	// CodeOutOfRange: the address is outside the served space.
	CodeOutOfRange = "out_of_range"
	// CodeOversized: a write payload exceeds the block size.
	CodeOversized = "oversized_payload"
	// CodeBatchTooLarge: a batch carries more addresses than the serving
	// side's public batch limit (Config.MaxBatch / MaxBatchAddrs).
	CodeBatchTooLarge = "batch_too_large"
	// CodeStoreClosed: the store is shut down — a condition of the node, not
	// the request, so a router fails over on it.
	CodeStoreClosed = "store_closed"
	// CodeTenantBudget: the request's tenant has exhausted its per-tenant
	// leakage sub-budget and new ops are refused until the operator raises
	// it.
	CodeTenantBudget = "tenant_budget_exhausted"
	// CodeUnavailable: the serving side could not reach any replica that
	// holds the data right now — a transient condition worth retrying.
	CodeUnavailable = "unavailable"
	// CodeInternal: any failure that carries no more specific code.
	CodeInternal = "internal"
)

// MaxBatchAddrs is the protocol-level ceiling on addresses per batch_read —
// the largest BatchK a store can be configured with, so the routing proxy
// can bound a batch before knowing which node's k will serve it. Individual
// stores enforce their tighter Config.MaxBatch.
const MaxBatchAddrs = 64

// Op is one member of a KV.Do submission: a read of Addr, or a write of Data
// (at most BlockBytes, zero-padded) to Addr. Do writes the op's own outcome
// back: Err (out of range, oversized payload, no replica reachable, …) and a
// successful read's block in Data; a failed read's Data is nil.
//
// Data belongs to the caller and is only borrowed by Do. A write's payload
// is read, never kept, so the caller may reuse it once Do returns. A read's
// Data is a buffer: when its capacity is at least the block size, a Store
// or a Client (and so the cluster router, through its clients) copies the
// block into Data[:BlockBytes] and hands back that slice of the same array;
// otherwise it allocates the block. Reusing one op, and its buffer, across
// calls therefore lets a Store serve reads and writes with no allocation at
// all.
type Op struct {
	Addr  uint64
	Write bool
	Data  []byte
	Err   error
}

// KV is the data surface of the service. *Store, *Client, *RetryClient,
// the WAN shaper and the cluster router each implement it once.
type KV interface {
	// Do serves one submission, of a shape CheckOps accepts, charged to
	// tenant's leakage sub-budget ("" = untenanted). A non-nil return
	// refuses the whole submission — empty, over the batch limit, tenant
	// over budget, store closed, transport failure; otherwise every op
	// carries its own outcome. Do keeps no reference to an op's Data after
	// it returns, and may fill a read's Data in place when that has room
	// for the block (see Op).
	Do(tenant string, ops []Op) error
}

// CheckOps is the one shape rule of KV.Do: exactly the shapes the wire
// carries — one read, one write, or 1..limit reads.
func CheckOps(ops []Op, limit int) error {
	if len(ops) == 0 {
		return Errorf(CodeBadRequest, "server: empty batch")
	}
	if len(ops) > limit {
		return Errorf(CodeBatchTooLarge, "server: batch of %d addresses exceeds the store's limit of %d", len(ops), limit)
	}
	if len(ops) > 1 {
		for _, op := range ops {
			if op.Write {
				return Errorf(CodeBadRequest, "server: a batch carries reads only")
			}
		}
	}
	return nil
}

// BatchResult is one batch member's outcome on the Go side of the KV
// surface: Data on success, a non-nil Err (a *RemoteError when it crossed
// the wire) otherwise.
type BatchResult struct {
	Data []byte
	Err  error
}

// ReadBatchVia runs addrs through kv as one batch of reads and returns the
// index-aligned results: the body of the ReadBatch shims that Store, Client
// and the cluster router keep for their existing callers. The ops it hands
// kv come from a free list; the results are fresh on every call.
func ReadBatchVia(kv KV, tenant string, addrs []uint64) ([]BatchResult, error) {
	var ops []Op
	if len(addrs) <= MaxBatchAddrs {
		arr := batchOps.take()
		defer batchOps.put(arr)
		ops = arr[:len(addrs)]
	} else {
		ops = make([]Op, len(addrs)) // over every KV's limit: kv refuses it
	}
	for i, a := range addrs {
		ops[i].Addr = a
	}
	if err := kv.Do(tenant, ops); err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(ops))
	for i, op := range ops {
		results[i] = BatchResult{Data: op.Data, Err: op.Err}
	}
	return results, nil
}

// freeList recycles *T records through a buffered channel rather than a
// sync.Pool, which drops a random share of its Puts under the race
// detector and would make a call's allocation count depend on the build.
type freeList[T any] chan *T

// take returns a recycled record, or a new one; either is zero.
func (f freeList[T]) take() *T {
	select {
	case x := <-f:
		return x
	default:
		return new(T)
	}
}

// put zeroes x, so the list pins nothing of its last user's, and keeps it
// unless the list is full.
func (f freeList[T]) put(x *T) {
	var zero T
	*x = zero
	select {
	case f <- x:
	default:
	}
}

// The lists hold only arrays that calls have finished with, so they fill to
// the most such calls a process has had in flight at once, and their
// capacities only cap what an idle process keeps: 64 one-op arrays of 56
// bytes, 16 batch arrays of 3.5 KiB.
var (
	// oneOps recycles the one-op arrays Client.Read and Client.Write hand
	// Do: the call's pending record holds them, so a fresh one would
	// escape to the heap on every call.
	oneOps = make(freeList[[1]Op], 64)
	// batchOps recycles ReadBatchVia's op arrays, for the same reason.
	batchOps = make(freeList[[MaxBatchAddrs]Op], 16)
)

// Error is a coded application-level failure: the text is for humans, the
// code is the stable contract clients and the failover taxonomy branch on.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds a coded error with fmt-style text.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// ErrorCode extracts the machine-readable code from any error: the code of
// a coded server error or of a remote rejection, CodeInternal for anything
// uncoded, "" for nil.
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	var coded *Error
	if errors.As(err, &coded) && coded.Code != "" {
		return coded.Code
	}
	var remote *RemoteError
	if errors.As(err, &remote) && remote.Code != "" {
		return remote.Code
	}
	return CodeInternal
}

// Frame constants: the version byte, the verbs, and the limits.
const (
	frameVersion = 1

	verbRead      = 1
	verbWrite     = 2
	verbBatchRead = 3
	verbStats     = 4
	verbPing      = 5
	verbError     = 0xff

	// frameHeaderBytes is the header without its tenant tag.
	frameHeaderBytes = 4 + 1 + 8 + 1 + 2 + 4 + 1
	// maxFrameBytes bounds one frame, length prefix included. Config.Validate
	// refuses a store whose worst-case frame would not fit.
	maxFrameBytes = 1 << 20
	// maxTenantBytes is the longest tenant tag the u8 length can carry.
	maxTenantBytes = 255
	// maxErrText bounds one failure text; longer texts are cut.
	maxErrText = 1024
)

// wireCodes numbers the error codes on the wire: a member's code byte is
// its index here, and 0 means no error. Append only — the numbers are the
// protocol.
var wireCodes = [...]string{"", CodeBadRequest, CodeUnknownOp, CodeOutOfRange, CodeOversized,
	CodeBatchTooLarge, CodeStoreClosed, CodeTenantBudget, CodeUnavailable, CodeInternal}

// codeByte numbers code for the wire; a code the table lacks goes as
// CodeInternal.
func codeByte(code string) byte {
	for i := 1; i < len(wireCodes); i++ {
		if wireCodes[i] == code {
			return byte(i)
		}
	}
	return codeByte(CodeInternal)
}

// errBadFrame marks bytes that cannot be delimited or do not answer any
// request: the stream can no longer be trusted, so the connection ends.
// It says nothing about the request, so IsRecoverable accepts it.
var errBadFrame = errors.New("server: malformed frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadFrame, fmt.Sprintf(format, args...))
}

// frameBytes is the exact wire length of a request of verb with k members
// under a tenantBytes-long tag, and of its successful response, where width
// is the data each member moves: a write's payload up, a read's block down
// (k = 0 for ping and stats; a stats response adds its JSON). Addresses,
// ids and data bytes do not enter it, so a frame's size tells a network
// observer only these public parameters.
func frameBytes(verb byte, k, width, tenantBytes int) (req, resp int) {
	req, resp = frameHeaderBytes+tenantBytes, frameHeaderBytes
	switch verb {
	case verbWrite:
		req += k * (8 + width)
		resp += k * 2
	case verbRead, verbBatchRead:
		req += k * 8
		resp += k * (2 + width)
	}
	return req, resp
}

// worstFrameBytes is the longest frame a store of k-address batches and
// blockBytes blocks exchanges: a full-block write under the longest tenant
// tag, or a k-member batch response whose every member failed with the
// longest text.
func worstFrameBytes(k, blockBytes int) int {
	write, _ := frameBytes(verbWrite, 1, blockBytes, maxTenantBytes)
	_, batch := frameBytes(verbBatchRead, k, blockBytes, 0)
	return max(write, batch+k*(2+maxErrText))
}

// verbOf names the verb a submission of a shape CheckOps accepts goes as.
func verbOf(ops []Op) byte {
	switch {
	case ops[0].Write:
		return verbWrite
	case len(ops) > 1:
		return verbBatchRead
	}
	return verbRead
}

// appendHeader starts a frame at len(b) with a zero length that
// finishFrame fills in.
func appendHeader(b []byte, id uint64, verb byte, count, width int, tenant string) []byte {
	b = append(b, 0, 0, 0, 0, frameVersion)
	b = binary.BigEndian.AppendUint64(b, id)
	b = append(b, verb)
	b = binary.BigEndian.AppendUint16(b, uint16(count))
	b = binary.BigEndian.AppendUint32(b, uint32(width))
	b = append(b, byte(len(tenant)))
	return append(b, tenant...)
}

// finishFrame writes the length of the frame that starts at b[start:].
func finishFrame(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendRequest appends the request frame for one submission of verb.
func appendRequest(b []byte, id uint64, verb byte, tenant string, ops []Op) []byte {
	width := 0
	if verb == verbWrite {
		width = len(ops[0].Data)
	}
	start := len(b)
	b = appendHeader(b, id, verb, len(ops), width, tenant)
	for _, op := range ops {
		b = binary.BigEndian.AppendUint64(b, op.Addr)
		if verb == verbWrite {
			b = append(b, op.Data...)
		}
	}
	return finishFrame(b, start)
}

// appendText appends one failure text, cut to maxErrText.
func appendText(b []byte, text string) []byte {
	if len(text) > maxErrText {
		text = text[:maxErrText]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(text)))
	return append(b, text...)
}

// appendError appends a verbError response refusing request id with err.
func appendError(b []byte, id uint64, err error) []byte {
	start := len(b)
	b = appendHeader(b, id, verbError, 1, 0, "")
	b = append(b, 0, codeByte(ErrorCode(err)))
	return finishFrame(appendText(b, err.Error()), start)
}

// frameHeader is a parsed header; tenant aliases the reader's buffer.
type frameHeader struct {
	id     uint64
	verb   byte
	count  int
	width  int
	tenant []byte
}

// frameReader reads frames through one buffer it reuses, so a frame's
// bytes are valid only until the next call.
type frameReader struct {
	r   *bufio.Reader
	pre [5]byte // length and version, checked before the rest is read
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads one frame and returns its header and members. It fails with
// io.EOF at a clean end of stream and with errBadFrame on bytes it cannot
// delimit; either way no more frames follow.
func (fr *frameReader) next() (frameHeader, []byte, error) {
	var h frameHeader
	if _, err := io.ReadFull(fr.r, fr.pre[:]); err != nil {
		return h, nil, err
	}
	if v := fr.pre[4]; v != frameVersion {
		return h, nil, badFrame("version byte %#02x, want %#02x", v, frameVersion)
	}
	n := int(binary.BigEndian.Uint32(fr.pre[:4])) - 1 // the version byte is read
	switch {
	case n+5 > maxFrameBytes:
		return h, nil, badFrame("frame of %d bytes exceeds the %d-byte limit", n+5, maxFrameBytes)
	case n+5 < frameHeaderBytes:
		return h, nil, badFrame("frame of %d bytes is shorter than its header", n+5)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	b := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return h, nil, err
	}
	h.id = binary.BigEndian.Uint64(b)
	h.verb = b[8]
	h.count = int(binary.BigEndian.Uint16(b[9:]))
	h.width = int(binary.BigEndian.Uint32(b[11:]))
	const tenantAt = frameHeaderBytes - 5 // the tag follows its length byte
	end := tenantAt + int(b[tenantAt-1])
	if end > n {
		return h, nil, badFrame("tenant tag overruns a frame of %d bytes", n+5)
	}
	h.tenant = b[tenantAt:end]
	return h, b[end:], nil
}
