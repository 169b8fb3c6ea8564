package server

import (
	"errors"
	"fmt"
)

// The daemon protocol is JSON lines over TCP: one JSON object per newline-
// terminated line in each direction. Requests carry a client-chosen id that
// the matching response echoes, so clients may pipeline arbitrarily many
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
// Ops:
//
//	{"id":1,"op":"read","addr":17}
//	{"id":2,"op":"write","addr":17,"data":"<base64>","tenant":"acme"}
//	{"id":3,"op":"batch_read","addrs":[17,33,2],"tenant":"acme"}
//	{"id":4,"op":"stats"}
//	{"id":5,"op":"ping"}
//
// Responses:
//
//	{"id":1,"ok":true,"data":"<base64>"}
//	{"id":2,"ok":true}
//	{"id":3,"ok":true,"results":[{"ok":true,"data":"<base64>"},...]}
//	{"id":4,"ok":true,"stats":{...}}
//	{"id":6,"ok":false,"err":"server: address 99999 out of range (4096 blocks)","code":"out_of_range"}
//
// A failed response (or batch member) carries both the human-readable err
// text and a machine-readable code (the constants below), so clients branch
// on codes instead of string-matching error prose.

// Op names accepted by the daemon.
const (
	OpRead      = "read"
	OpWrite     = "write"
	OpBatchRead = "batch_read"
	OpStats     = "stats"
	OpPing      = "ping"
)

// Machine-readable error codes carried in Response.Code / WireResult.Code.
const (
	// CodeBadRequest: the request was malformed (unparseable line, empty
	// batch, missing fields).
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

// Request is one client → daemon message.
type Request struct {
	ID   uint64 `json:"id"`
	Op   string `json:"op"`
	Addr uint64 `json:"addr,omitempty"`
	Data []byte `json:"data,omitempty"`
	// Addrs carries a batch_read's addresses (up to the serving side's batch
	// limit); ignored by the single-op verbs.
	Addrs []uint64 `json:"addrs,omitempty"`
	// Tenant tags the op for the per-tenant leakage accountant. Empty means
	// untenanted: served normally, charged to no sub-budget. The tag is
	// public metadata — see docs/LEAKAGE.md.
	Tenant string `json:"tenant,omitempty"`
}

// Response is one daemon → client message.
type Response struct {
	ID   uint64 `json:"id"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
	Code string `json:"code,omitempty"`
	Data []byte `json:"data,omitempty"`
	// Results carries a batch_read's per-address outcomes, index-aligned
	// with the request's Addrs.
	Results []WireResult `json:"results,omitempty"`
	Stats   *Stats       `json:"stats,omitempty"`
}

// WireResult is one batch member's outcome on the wire: a batch response is
// OK as a whole whenever the batch itself was accepted, and each member
// succeeds or fails independently.
type WireResult struct {
	OK   bool   `json:"ok"`
	Data []byte `json:"data,omitempty"`
	Err  string `json:"err,omitempty"`
	Code string `json:"code,omitempty"`
}

// Op is one member of a KV.Do submission: a read of Addr, or a write of Data
// (at most BlockBytes, zero-padded) to Addr. Do writes the op's own outcome
// back: Err (out of range, oversized payload, no replica reachable, …) and a
// successful read's block in Data.
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
	// carries its own outcome.
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
// and the cluster router keep for their existing callers.
func ReadBatchVia(kv KV, tenant string, addrs []uint64) ([]BatchResult, error) {
	ops := make([]Op, len(addrs))
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

// errResponse renders an error as a failed response for id.
func errResponse(id uint64, err error) Response {
	return Response{ID: id, OK: false, Err: err.Error(), Code: ErrorCode(err)}
}
