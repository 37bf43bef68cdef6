package rpc

// The SCADS binary wire format. Every message is one length-prefixed
// frame:
//
//	frameLen uint32 little-endian | version byte | message
//
// where frameLen covers everything after the 4-byte prefix. Requests
// and responses are encoded with hand-rolled, zero-reflection
// append-style encoders: fixed field order, uvarint lengths and
// counts, zigzag varints for signed integers, little-endian for the
// float-free fixed-width fields. Unused fields cost one zero byte
// each, so the envelope-style Request/Response structs stay cheap even
// though most fields are empty on any given method.
//
// Decoders never trust a length or count before checking it against
// the bytes actually present, so a truncated or corrupted frame (or a
// hostile one claiming a multi-gigabyte payload) errors out without
// over-allocating and without panicking.
//
// Memory ownership is the same on both transports (TCPTransport and
// LocalTransport call the same functions):
//
//   - Requests are decoded in place in the frame that carried them
//     (receiveRequest). A point read (isPointRead) BORROWS its byte
//     fields from it: it is served and its response encoded before the
//     frame is reused — the TCP server's next read, LocalTransport's
//     overwrite — so a get allocates nothing here. Every other request
//     is DETACHED before it is served: its byte fields are copied into
//     one per-request arena sized to their total, so handlers — and the
//     storage engine behind them, which retains applied records in the
//     memtable and apply log — own what they keep. Cost: one arena
//     allocation per such request that carries any bytes, regardless of
//     how many records. Namespace and tenant strings come from an
//     intern table either way: a TCP connection's, or one LocalTransport
//     lends a call.
//
//   - Responses are decoded in place too, and detached the same way
//     before they go to their caller (receiveResponse): one exact arena
//     for a response that carries bytes, none for one that carries none
//     (an apply's, a ping's), so a scan page of N records costs O(1)
//     allocations.
//
// Encoding buffers are pooled: an encoded frame is built — length
// prefix included — in a single reusable buffer and handed to the
// connection's writer (framed.go), which puts it on the socket alone
// or together with the frames queued behind a write in flight.
// Oversized buffers are dropped instead of pooled so one huge frame
// cannot pin its capacity forever.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"scads/internal/record"
)

const (
	// wireVersion is the first byte of every frame; bump on any
	// incompatible layout change so mismatched peers fail fast with a
	// clear error instead of a garbled decode.
	wireVersion = 2

	// maxFrameSize bounds one frame: a corrupt or hostile length
	// prefix does not get to allocate gigabytes, and both encode
	// paths enforce the same bound (a response that would overflow it
	// is replaced by an error response; an oversized request fails
	// the call with a semantic error, not ErrUnreachable). The node's
	// page byte budget (cluster.Node scan, snapshot and delta pages)
	// keeps real pages an order of magnitude below this.
	maxFrameSize = 64 << 20

	// maxPooledFrame bounds what goes back into framePool: buffers
	// that grew past it are left for the GC so one giant frame does
	// not permanently inflate the pool.
	maxPooledFrame = 1 << 20
)

// errCorruptFrame is the decode-failure class: the peer spoke the
// right framing but the message inside did not parse. It is
// deliberately distinct from ErrUnreachable — a peer that answers
// garbage is broken, not down — but the transport still tears the
// connection down, because a desynchronised byte stream cannot be
// re-synchronised.
var errCorruptFrame = errors.New("rpc: corrupt wire frame")

// Response flag bits.
const (
	respFlagFound byte = 1 << 0
	respFlagMore  byte = 1 << 1
)

// Method codes keep the hot field to one byte: a method's code is its
// index in methodNames. Code 0 escapes to an inline string for methods
// the table does not know (forward compatibility for coordinator-served
// admin methods).
var methodNames = [...]string{
	1:  MethodPing,
	2:  MethodGet,
	3:  MethodPut,
	4:  MethodDelete,
	5:  MethodScan,
	6:  MethodApply,
	7:  MethodDropRange,
	8:  MethodStats,
	9:  MethodBatch,
	10: MethodRangeSnapshot,
	11: MethodRangeDelta,
	12: MethodRangeFence,
	13: MethodRepairs,
	14: MethodSwap,
}

// framePool recycles encode buffers, so steady-state encoding
// allocates nothing; buffers that ballooned past maxPooledFrame are
// not returned.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > maxPooledFrame {
		return
	}
	framePool.Put(b)
}

// appendBlob appends a uvarint length followed by the bytes.
func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendStr appends a uvarint length followed by the string bytes.
func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendVarint appends a zigzag-encoded signed integer.
func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// wireReader walks a frame buffer. Every accessor validates lengths
// against the bytes remaining before touching them; byte fields alias
// b. The first failure is kept in err and empties b, so every read
// after it returns a zero value: a decoder reads its fields straight
// through and checks err once.
type wireReader struct {
	b []byte
	// names, when non-nil, interns namespace and tenant strings.
	names *internTable
	err   error
}

// internTable holds the namespace and tenant strings a decoder keeps
// seeing, so each is made once, not per request: a TCP connection keeps
// one, a LocalTransport one for all its calls. A lookup reads the
// published map without a lock; a new name publishes a copy that holds
// it, up to maxInternedNames.
type internTable struct {
	mu    sync.Mutex
	names atomic.Pointer[map[string]string]
}

// maxInternedNames bounds an intern table, so a peer cycling through
// names cannot grow it.
const maxInternedNames = 64

func (t *internTable) intern(b []byte) string {
	if m := t.names.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.names.Load()
	if old == nil || len(*old) < maxInternedNames {
		m := map[string]string{s: s}
		if old != nil {
			maps.Copy(m, *old)
		}
		t.names.Store(&m)
	}
	return s
}

// fail records the frame as corrupt, unless it already is.
func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errCorruptFrame, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// uvarint reads one byte inline, as most fields of most frames are zero
// or small, and leaves longer values to uvarintSlow.
func (r *wireReader) uvarint() uint64 {
	if b := r.b; len(b) > 0 && b[0] < 0x80 {
		r.b = b[1:]
		return uint64(b[0])
	}
	return r.uvarintSlow()
}

func (r *wireReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *wireReader) byteVal() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// blob returns the next length-prefixed byte field as an alias of the
// frame buffer. Zero length decodes as nil.
func (r *wireReader) blob() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("blob length %d exceeds %d remaining", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// str converts straight from the frame alias — the string conversion
// is itself the copy.
func (r *wireReader) str() string { return string(r.blob()) }

// name is str for the fields that repeat from request to request: with
// an intern table, a string seen before is returned without a copy.
func (r *wireReader) name() string {
	b := r.blob()
	if len(b) == 0 || r.names == nil {
		return string(b)
	}
	return r.names.intern(b)
}

// Minimum encoded size per element type: what each costs on the wire
// when every field is zero. count() rejects any claimed count that
// could not fit in the remaining bytes at these densities, and decode
// grows slices incrementally (capped initial capacity), so a hostile
// count inside a valid-length frame can neither trigger a huge
// up-front allocation nor grow memory faster than the attacker
// supplies actual parseable bytes.
const (
	minWireString = 1 // length byte
	minWirePred   = 3 // column len + op + value len
	minWireRecord = 4 // flags + version + key len + value len
)

// maxPrealloc caps the capacity hint decode passes to make for
// count-prefixed slices; anything larger grows by append as elements
// actually parse.
const maxPrealloc = 1 << 12

func preallocHint(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// count reads an element count for elements of at least minElem
// encoded bytes, rejecting counts that could not possibly fit in the
// remaining bytes.
func (r *wireReader) count(minElem int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minElem) {
		r.fail("count %d exceeds %d remaining bytes (min element size %d)", n, len(r.b), minElem)
		return 0
	}
	return int(n)
}

// appendRequest appends the wire encoding of req to dst.
func appendRequest(dst []byte, req *Request) []byte {
	dst = binary.AppendUvarint(dst, req.ID)
	if code := methodCode(req.Method); code != 0 {
		dst = append(dst, code)
	} else {
		dst = append(dst, 0)
		dst = appendStr(dst, req.Method)
	}
	dst = appendStr(dst, req.Namespace)
	dst = appendStr(dst, req.Tenant)
	dst = appendBlob(dst, req.Key)
	dst = appendBlob(dst, req.Value)
	dst = appendBlob(dst, req.Start)
	dst = appendBlob(dst, req.End)
	dst = appendVarint(dst, int64(req.Limit))
	dst = binary.AppendUvarint(dst, uint64(len(req.Projection)))
	for _, s := range req.Projection {
		dst = appendStr(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Preds)))
	for _, p := range req.Preds {
		dst = appendStr(dst, p.Column)
		dst = binary.AppendUvarint(dst, uint64(p.Op))
		dst = appendBlob(dst, p.Value)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Records)))
	for _, rec := range req.Records {
		dst = rec.MarshalTo(dst)
	}
	dst = binary.AppendUvarint(dst, req.Since)
	dst = binary.AppendUvarint(dst, req.Epoch)
	if req.Fence {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// methodCode is method's code, or 0 if methodNames does not list it.
func methodCode(method string) byte {
	for code, name := range methodNames {
		if name == method && code != 0 {
			return byte(code)
		}
	}
	return 0
}

func readMethod(r *wireReader) string {
	code := r.byteVal()
	if code == 0 {
		return r.str()
	}
	if int(code) >= len(methodNames) || methodNames[code] == "" {
		r.fail("unknown method code %d", code)
		return ""
	}
	return methodNames[code]
}

func readRequest(r *wireReader, req *Request) {
	req.ID = r.uvarint()
	req.Method = readMethod(r)
	req.Namespace = r.name()
	req.Tenant = r.name()
	req.Key = r.blob()
	req.Value = r.blob()
	req.Start = r.blob()
	req.End = r.blob()
	req.Limit = int(r.varint())
	if n := r.count(minWireString); n > 0 {
		req.Projection = make([]string, 0, preallocHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			req.Projection = append(req.Projection, r.str())
		}
	}
	if n := r.count(minWirePred); n > 0 {
		req.Preds = make([]ScanPred, 0, preallocHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			req.Preds = append(req.Preds, ScanPred{Column: r.str(), Op: ScanPredOp(r.uvarint()), Value: r.blob()})
		}
	}
	req.Records = readRecords(r)
	req.Since = r.uvarint()
	req.Epoch = r.uvarint()
	req.Fence = r.byteVal() != 0
}

func readRecords(r *wireReader) []record.Record {
	n := r.count(minWireRecord)
	if n == 0 {
		return nil
	}
	recs := make([]record.Record, 0, preallocHint(n))
	for i := 0; i < n && r.err == nil; i++ {
		var rec record.Record
		rest, err := rec.Unmarshal(r.b)
		if err != nil {
			r.fail("record %d: %v", i, err)
			return nil
		}
		r.b = rest
		recs = append(recs, rec)
	}
	return recs
}

// appendResponse appends the wire encoding of resp to dst.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = binary.AppendUvarint(dst, resp.ID)
	var flags byte
	if resp.Found {
		flags |= respFlagFound
	}
	if resp.More {
		flags |= respFlagMore
	}
	dst = append(dst, flags)
	dst = appendStr(dst, resp.Err)
	dst = appendBlob(dst, resp.Value)
	dst = binary.AppendUvarint(dst, resp.Version)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Records)))
	for _, rec := range resp.Records {
		dst = rec.MarshalTo(dst)
	}
	dst = appendVarint(dst, resp.RecordCount)
	dst = appendVarint(dst, int64(resp.QueueDepth))
	dst = binary.AppendUvarint(dst, resp.Watermark)
	dst = binary.AppendUvarint(dst, resp.Epoch)
	dst = appendVarint(dst, int64(resp.Fenced))
	return appendBlob(dst, resp.Resume)
}

func readResponse(r *wireReader, resp *Response) {
	resp.ID = r.uvarint()
	flags := r.byteVal()
	resp.Found = flags&respFlagFound != 0
	resp.More = flags&respFlagMore != 0
	resp.Err = r.str()
	resp.Value = r.blob()
	resp.Version = r.uvarint()
	resp.Records = readRecords(r)
	resp.RecordCount = r.varint()
	resp.QueueDepth = int(r.varint())
	resp.Watermark = r.uvarint()
	resp.Epoch = r.uvarint()
	resp.Fenced = int(r.varint())
	resp.Resume = r.blob()
}

// end is the decode's verdict: its first failure, or a failure if any
// bytes are left over.
func (r *wireReader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// checkFramePayload validates the version byte and returns the message
// bytes.
func checkFramePayload(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty frame", errCorruptFrame)
	}
	if b[0] != wireVersion {
		return nil, fmt.Errorf("%w: wire version %d (want %d)", errCorruptFrame, b[0], wireVersion)
	}
	return b[1:], nil
}

// decodeRequestBorrowed decodes one frame payload (version byte
// included) into req, whose byte fields then alias b, so the request is
// valid only while b is (detachRequest ends that). Namespace and tenant
// strings are taken from (and added to) names when it is non-nil.
func decodeRequestBorrowed(b []byte, names *internTable, req *Request) error {
	msg, err := checkFramePayload(b)
	if err != nil {
		return err
	}
	r := wireReader{b: msg, names: names}
	readRequest(&r, req)
	return r.end()
}

// receiveRequest decodes a request frame's payload into req as a
// server takes it: a point read (isPointRead) keeps its byte fields
// borrowed from payload, and lent reports so; every other request is
// detached, so its handler owns what it keeps. names is
// decodeRequestBorrowed's.
func receiveRequest(payload []byte, names *internTable, req *Request) (lent bool, err error) {
	if err := decodeRequestBorrowed(payload, names, req); err != nil {
		return false, err
	}
	if isPointRead(req) {
		return true, nil
	}
	detachRequest(req)
	return false, nil
}

// receiveResponse decodes a response frame's payload into resp as a
// client takes it: detached, so the caller owns every byte of it.
func receiveResponse(payload []byte, resp *Response) error {
	if err := decodeResponse(payload, resp); err != nil {
		return err
	}
	detachResponse(resp)
	return nil
}

// detachRequest copies every byte field of req into one arena of
// exactly their total size, so the request no longer aliases the frame
// it was decoded from. A request without byte fields allocates nothing.
func detachRequest(req *Request) {
	if n := requestBytes(req); n > 0 {
		a := arena(make([]byte, 0, n))
		a.detachRequest(req)
	}
}

// detachResponse is detachRequest for a response.
func detachResponse(resp *Response) {
	if n := responseBytes(resp); n > 0 {
		a := arena(make([]byte, 0, n))
		a.detachResponse(resp)
	}
}

// requestBytes is the total length of req's byte fields.
func requestBytes(req *Request) int {
	n := len(req.Key) + len(req.Value) + len(req.Start) + len(req.End) + recordBytes(req.Records)
	for _, p := range req.Preds {
		n += len(p.Value)
	}
	return n
}

// responseBytes is the total length of resp's byte fields.
func responseBytes(resp *Response) int {
	return len(resp.Value) + len(resp.Resume) + recordBytes(resp.Records)
}

func recordBytes(recs []record.Record) int {
	n := 0
	for _, rec := range recs {
		n += len(rec.Key) + len(rec.Value)
	}
	return n
}

// arena is the buffer a detach copies into; it is made with room for
// every field, so it never reallocates.
type arena []byte

func (a *arena) detachRequest(req *Request) {
	req.Key = a.copy(req.Key)
	req.Value = a.copy(req.Value)
	req.Start = a.copy(req.Start)
	req.End = a.copy(req.End)
	for i := range req.Preds {
		req.Preds[i].Value = a.copy(req.Preds[i].Value)
	}
	a.records(req.Records)
}

func (a *arena) detachResponse(resp *Response) {
	resp.Value = a.copy(resp.Value)
	resp.Resume = a.copy(resp.Resume)
	a.records(resp.Records)
}

func (a *arena) records(recs []record.Record) {
	for i := range recs {
		recs[i].Key = a.copy(recs[i].Key)
		recs[i].Value = a.copy(recs[i].Value)
	}
}

// copy appends v to the arena and returns the copy; nil stays nil.
func (a *arena) copy(v []byte) []byte {
	if v == nil {
		return nil
	}
	start := len(*a)
	*a = append(*a, v...)
	return (*a)[start:len(*a):len(*a)]
}

// decodeResponse decodes one frame payload (version byte included)
// into resp, whose byte fields then alias b (detachResponse ends that).
func decodeResponse(b []byte, resp *Response) error {
	msg, err := checkFramePayload(b)
	if err != nil {
		return err
	}
	r := wireReader{b: msg}
	readResponse(&r, resp)
	return r.end()
}

// errFrameOverflow reports an encoded message that would exceed
// maxFrameSize. It is a semantic error — the payload is too big, the
// peer is fine — so it is never classified unreachable and never
// retried.
var errFrameOverflow = errors.New("rpc: encoded frame exceeds size limit")

// encodeRequestFrame builds a complete frame (length prefix, version,
// message) for req in a pooled buffer. The caller must return the
// buffer with putFrameBuf after the write completes. An encoding past
// maxFrameSize returns errFrameOverflow — the peer would reject it as
// corrupt and tear the connection down, so it must not be sent.
func encodeRequestFrame(req *Request) (*[]byte, error) {
	return encodeRequestFrameLimit(req, maxFrameSize)
}

func encodeRequestFrameLimit(req *Request, limit int) (*[]byte, error) {
	bp := getFrameBuf()
	b := append((*bp)[:0], 0, 0, 0, 0, wireVersion)
	b = appendRequest(b, req)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	*bp = b
	if len(b)-4 > limit {
		putFrameBuf(bp)
		return nil, fmt.Errorf("%w (%d bytes)", errFrameOverflow, len(b)-4)
	}
	return bp, nil
}

// encodeResponseFrame is encodeRequestFrame for the reply direction,
// built by appendResponseFrame.
func encodeResponseFrame(resp *Response) *[]byte {
	bp := getFrameBuf()
	*bp = appendResponseFrame((*bp)[:0], resp, maxFrameSize)
	return bp
}

// appendResponseFrame appends resp's complete frame (length prefix,
// version, message) to dst. A message past limit is replaced by an
// error response carrying the same correlation ID, so the caller gets a
// clear semantic error instead of a torn connection and an unreachable
// misclassification.
func appendResponseFrame(dst []byte, resp *Response, limit int) []byte {
	start := len(dst)
	b := append(dst, 0, 0, 0, 0, wireVersion)
	b = appendResponse(b, resp)
	if n := len(b) - start - 4; n > limit {
		errResp := Response{ID: resp.ID, Err: fmt.Sprintf("%v (%d bytes)", errFrameOverflow, n)}
		// Rebuild unconditionally — the substitute is inherently tiny,
		// so no second size check (which could recurse) is needed.
		b = append(b[:start], 0, 0, 0, 0, wireVersion)
		b = appendResponse(b, &errResp)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}
