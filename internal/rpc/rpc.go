// Package rpc implements the SCADS wire protocol: length-prefixed
// binary frames carrying hand-rolled, zero-reflection request/response
// encodings (see wire.go for the frame layout). A call has one
// semantics whichever transport carries it: the request is encoded,
// decoded at the handler as a server decodes it, served, and the
// response encoded and decoded as a client decodes it. TCPTransport
// moves the frames over a pipelined multiplexed connection;
// LocalTransport, the cluster simulator's, hands them across in
// process, with injectable latency and failures.
//
// The protocol is deliberately small — the paper's storage interface is
// point get/put/delete, bounded range scan, and the replication apply
// path. Every storage node, the router, and the replication pump speak
// through the Transport interface, so experiments can swap real sockets
// for simulated ones without touching any other layer.
//
// Multi-get: MethodBatch reads many keys of one namespace in one call.
// The keys ride in Request.Records (key only), and the node answers
// each in order in Response.Records with the value and version a get
// would return (a tombstone for a key with no live row). The router's
// GetBatch sends one per node; every other call travels alone, and
// concurrent calls to one address share a connection whose writer
// packs their frames into one socket write.
package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"scads/internal/record"
)

// Method names understood by storage nodes.
const (
	MethodPing      = "ping"
	MethodGet       = "get"
	MethodPut       = "put"
	MethodDelete    = "delete"
	MethodScan      = "scan"
	MethodApply     = "apply"     // replication: apply pre-versioned records
	MethodSwap      = "swap"      // apply pre-versioned records at their primary, answer the record each displaced
	MethodDropRange = "droprange" // partition move cleanup
	MethodStats     = "stats"
	MethodBatch     = "batch" // multi-get: Request.Records' keys, answered in order in Response.Records

	// Online range migration (snapshot → delta catch-up → fence):
	// MethodRangeSnapshot pages a range's records (tombstones included)
	// together with the donor's apply watermark; MethodRangeDelta
	// returns the records modified after a watermark; MethodRangeFence
	// installs or lifts a write fence over a range, and an install with
	// a Limit above 0 answers the range's final delta page as
	// MethodRangeDelta does.
	MethodRangeSnapshot = "rangesnap"
	MethodRangeDelta    = "rangedelta"
	MethodRangeFence    = "rangefence"

	// MethodRepairs is served by a coordinator's admin handler (not by
	// storage nodes): it reports the self-healing repair subsystem's
	// counters and in-flight jobs for operator tooling (scads-ctl
	// repairs).
	MethodRepairs = "repairs"

	// MethodTenants is served by a coordinator's admin handler: it
	// reports the admission controller's per-tenant quota/shed/admit
	// counters for operator tooling (scads-ctl tenants).
	MethodTenants = "tenants"
)

// controlMethods are the cheap control-plane probes (failure
// detection, operator tooling) that must never queue behind bulk
// data-plane work: the server keeps dedicated handler headroom for
// them.
var controlMethods = map[string]bool{
	MethodPing:    true,
	MethodStats:   true,
	MethodRepairs: true,
	MethodTenants: true,
}

// IsControlMethod reports whether method is a control-plane probe
// entitled to the server's reserved handler headroom.
func IsControlMethod(method string) bool { return controlMethods[method] }

// isPointRead reports whether req is a point read: a get or a
// multi-get. The server serves point reads on the connection's read
// loop instead of on a handler goroutine of their own, with their byte
// fields borrowed from its read buffer (see Handler).
func isPointRead(req *Request) bool {
	return req.Method == MethodGet || req.Method == MethodBatch
}

// Request is the single request envelope for all methods. Unused
// fields stay at their zero values; the wire codec encodes a zero
// field as a single byte.
type Request struct {
	// ID is the correlation ID. Callers leave it zero: TCPTransport
	// stamps its own per-connection IDs on the wire without mutating
	// the caller's value.
	ID        uint64
	Method    string
	Namespace string

	// Tenant is the admission-control identity of the session that
	// originated the request (empty for the default tenant). It rides
	// the envelope so per-tenant accounting survives coordinator →
	// node fan-out (scans debit the tenant's scan-byte quota).
	Tenant string

	Key   []byte
	Value []byte

	Start []byte
	End   []byte
	Limit int

	// Projection and Preds are MethodScan pushdown: when Projection is
	// non-empty the node decodes each matching row, narrows it to the
	// named columns, and returns the re-encoded projection instead of
	// the full base row; Preds are conjunctive filters evaluated
	// node-side, so non-matching rows never cross the wire and do not
	// count against Limit.
	Projection []string
	Preds      []ScanPred

	// Records carries pre-versioned writes for MethodApply and
	// MethodSwap, and the keys of a MethodBatch multi-get.
	Records []record.Record

	// Since and Epoch carry the delta baseline for MethodRangeDelta
	// and for a MethodRangeFence install that asks for a page:
	// "everything applied after sequence Since of epoch Epoch". On a
	// MethodSwap, Since is an exclusive bound on each key's stored
	// version (0: none).
	Since uint64
	Epoch uint64

	// Fence selects install (true) or lift (false) for
	// MethodRangeFence.
	Fence bool
}

// Response is the reply envelope.
type Response struct {
	ID    uint64
	Err   string
	Found bool

	Value   []byte
	Version uint64
	Records []record.Record

	// Stats payload (MethodStats).
	RecordCount int64
	QueueDepth  int

	// Watermark and Epoch report the node's apply position for
	// MethodRangeSnapshot (captured before the snapshot scan) and
	// for a delta page, MethodRangeDelta's or a fence install's
	// (covering the returned records).
	Watermark uint64
	Epoch     uint64

	// Fenced reports the node's installed fence count (MethodStats).
	Fenced int

	// More and Resume continue a range read (MethodScan,
	// MethodRangeSnapshot, MethodRangeDelta): More is set exactly when
	// a record lies beyond the page — its limit, visit clamp or byte
	// budget filled — and Resume is that record's key, where a scan or
	// snapshot continues. A delta continues from Watermark instead.
	More   bool
	Resume []byte
}

// ErrString converts an error to the wire representation.
func ErrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Error materialises the wire error, or nil.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return errors.New(r.Err)
}

// Handler processes one request. Implementations must be safe for
// concurrent use. A point read's byte fields (isPointRead: a get or a
// multi-get) are lent for the call: the transport decodes them in place
// in its frame, which it overwrites once the response is encoded, so
// Serve must copy any of them it keeps. The response may alias them.
// Every other request owns its bytes.
type Handler interface {
	Serve(req Request) Response
}

// serve is the one serve step of every transport: h answers req, and
// the response carries req's correlation ID.
func serve(h Handler, req *Request) Response {
	resp := h.Serve(*req)
	resp.ID = req.ID
	return resp
}

// HandlerFunc adapts a function to a Handler.
type HandlerFunc func(Request) Response

// Serve implements Handler.
func (f HandlerFunc) Serve(req Request) Response { return f(req) }

// Transport delivers a request to the node at addr and returns its
// response. Call keeps nothing of req: the request crosses as an
// encoded frame, so the caller may reuse every buffer it passed once
// Call returns. The response is the caller's alone.
type Transport interface {
	Call(addr string, req Request) (Response, error)
}

// ErrUnreachable is returned when the destination node cannot be
// reached (connection refused, node down in simulation, etc.).
var ErrUnreachable = errors.New("rpc: node unreachable")

// ErrFenced is the wire error a node returns for a write landing in a
// range fenced for migration handoff. Coordinators react by re-reading
// the partition map and retrying against the (possibly new) primary —
// the write is delayed by the fence pause, never dropped.
var ErrFenced = errors.New("rpc: range fenced for migration")

// ErrSnapshotGap is the wire error MethodRangeDelta returns when the
// supplied watermark predates the node's retained delta log (or names
// a previous process lifetime). The migration must restart from a
// fresh snapshot.
var ErrSnapshotGap = errors.New("rpc: delta watermark outside retained apply log")

// ErrSwapAnswerLost is the wire error MethodSwap returns for a
// re-delivered swap whose first delivery landed but whose answer the
// node no longer remembers (it restarted, or the range migrated, since).
// The record it displaced is gone, so the caller must not guess it.
var ErrSwapAnswerLost = errors.New("rpc: swap re-delivered after its answer was forgotten")

// IsFenced reports whether err is a fence rejection, across the wire
// boundary (errors arrive re-materialised from strings).
func IsFenced(err error) bool {
	return err != nil && strings.Contains(err.Error(), "range fenced for migration")
}

// FenceRetryLimit and FenceRetryPause bound how long a request that
// hits a fence is delayed: re-read the partition map and retry, up to
// this many times with this pause between. A fence pause covers one
// final delta drain plus the routing flip, so the bound is generous.
// (The policy itself lives in partition's request-execution core.)
const (
	FenceRetryLimit = 400
	FenceRetryPause = time.Millisecond
)

// DownRetryPause and DownRetryBudget bound how long a request whose
// replicas are unreachable, marked down or shedding is delayed, so it
// stalls through a crash-failover window (failure detection plus the
// repair manager's primary flip) instead of failing. The budget is a
// wall-clock bound, not an attempt count — over TCP a single attempt
// against a half-dead node can burn a full dial timeout, so
// attempt-counting alone would stretch the stall to minutes. The 4s
// budget deliberately covers the repair loop's *default* detection
// window (3s heartbeat timeout + one 500ms sweep) with margin, so an
// out-of-the-box cluster keeps the "writes stall through failover,
// never fail" contract; tune both together if you lengthen the
// heartbeat timeout.
const (
	DownRetryPause  = 5 * time.Millisecond
	DownRetryBudget = 4 * time.Second
)

// IsUnreachable reports whether err means the target node could not be
// reached at all (crash, partition, refused connection, connection
// torn down mid-request), across error wrapping and across the wire
// boundary (errors arrive re-materialised from strings). The transport
// layer is responsible for wrapping its own failures in ErrUnreachable
// (TCPTransport wraps dial, send, and receive errors); the substring
// checks are deliberately narrow so a node-side semantic error whose
// message happens to mention I/O is never mistaken for a dead node.
func IsUnreachable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrUnreachable) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "node unreachable") ||
		strings.Contains(s, "connection refused") ||
		strings.Contains(s, "connection reset")
}

// ErrOverloaded is the wire error returned when a server sheds a
// request instead of queueing it: the node's per-connection handler
// bound is saturated, or the coordinator's admission controller
// rejected the tenant (quota exhausted or priority shed under
// measured overload). It is backpressure, not failure — the work was
// never started, so the caller should wait the retry-after hint and
// try again under its normal retry budget instead of hammering.
var ErrOverloaded = errors.New("rpc: overloaded")

// DefaultRetryAfter is the retry-after hint used when an overload
// rejection carries none (or the hint failed to parse off the wire).
const DefaultRetryAfter = 10 * time.Millisecond

// Overloaded builds a classified overload rejection carrying a
// retry-after hint and a human-readable reason. The hint travels
// inside the message so it survives the string-typed wire boundary;
// RetryAfter recovers it on the far side.
func Overloaded(retryAfter time.Duration, reason string) error {
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	if reason == "" {
		return fmt.Errorf("%w, retry after %s", ErrOverloaded, retryAfter)
	}
	return fmt.Errorf("%w, retry after %s: %s", ErrOverloaded, retryAfter, reason)
}

// IsOverloaded reports whether err is an overload shed, across error
// wrapping and across the wire boundary (errors arrive
// re-materialised from strings).
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	return strings.Contains(err.Error(), "rpc: overloaded")
}

// RetryAfter extracts the retry-after hint from an overload
// rejection, across the wire boundary. Non-overload errors and
// rejections without a parseable hint yield DefaultRetryAfter, so
// callers can sleep the result unconditionally.
func RetryAfter(err error) time.Duration {
	if err == nil {
		return DefaultRetryAfter
	}
	s := err.Error()
	i := strings.Index(s, "retry after ")
	if i < 0 {
		return DefaultRetryAfter
	}
	s = s[i+len("retry after "):]
	if j := strings.IndexAny(s, ":,; "); j >= 0 {
		s = s[:j]
	}
	d, perr := time.ParseDuration(s)
	if perr != nil || d <= 0 {
		return DefaultRetryAfter
	}
	return d
}

// IsSnapshotGap reports whether err is a delta-baseline gap, across
// the wire boundary.
func IsSnapshotGap(err error) bool {
	return err != nil && strings.Contains(err.Error(), "delta watermark outside retained apply log")
}

// Unimplemented is a convenience response for unknown methods.
func Unimplemented(req Request) Response {
	return Response{ID: req.ID, Err: fmt.Sprintf("rpc: unknown method %q", req.Method)}
}

// ScanPredOp enumerates the comparison operators a pushed-down scan
// filter supports.
type ScanPredOp int

// Supported pushdown comparison operators.
const (
	PredEq ScanPredOp = iota
	PredLt
	PredLe
	PredGt
	PredGe
)

// ScanPred is one conjunct of a pushed-down scan filter: the named row
// column, compared against Value. Value holds the keycodec encoding of
// the literal, and the node compares it against the keycodec encoding
// of the row's column — byte order equals value order, so one
// bytes.Compare implements every operator for every column type
// without the wire format knowing about row value types at all.
type ScanPred struct {
	Column string
	Op     ScanPredOp
	Value  []byte
}

// Match reports whether a keycodec-encoded column value satisfies the
// predicate.
func (p ScanPred) Match(encoded []byte) bool {
	c := bytes.Compare(encoded, p.Value)
	switch p.Op {
	case PredEq:
		return c == 0
	case PredLt:
		return c < 0
	case PredLe:
		return c <= 0
	case PredGt:
		return c > 0
	case PredGe:
		return c >= 0
	default:
		return false
	}
}

// BatcherStats is always zero: no transport coalesces calls. It keeps
// its name and fields because the benchmark module reads them through
// scads.Stats.Batching.
type BatcherStats struct {
	Calls     int64
	Envelopes int64
	Batched   int64
}
