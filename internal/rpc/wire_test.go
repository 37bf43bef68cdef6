package rpc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scads/internal/record"
)

// fullRequest exercises every Request field.
func fullRequest() Request {
	return Request{
		ID:         42,
		Method:     MethodScan,
		Namespace:  "users",
		Tenant:     "tenant-a",
		Key:        []byte("k"),
		Value:      []byte("v"),
		Start:      []byte("a"),
		End:        []byte("z"),
		Limit:      -7, // negative limits are meaningful (MaxVersion probe)
		Projection: []string{"id", "name"},
		Preds: []ScanPred{
			{Column: "birthday", Op: PredGe, Value: []byte{0x10, 1}},
			{Column: "name", Op: PredEq, Value: []byte("bob")},
		},
		Records: []record.Record{
			{Key: []byte("rk"), Value: []byte("rv"), Version: 99},
			{Key: []byte("dead"), Version: 100, Tombstone: true},
		},
		Since: 12345,
		Epoch: 6789,
		Fence: true,
	}
}

func fullResponse() Response {
	return Response{
		ID:          42,
		Err:         "some failure",
		Found:       true,
		Value:       []byte("payload"),
		Version:     77,
		Records:     []record.Record{{Key: []byte("k"), Value: []byte("v"), Version: 3}},
		RecordCount: -1,
		QueueDepth:  9,
		Watermark:   1 << 40,
		Epoch:       2,
		Fenced:      3,
		More:        true,
		Resume:      []byte("resume-key"),
	}
}

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	bp, err := encodeRequestFrame(&req)
	if err != nil {
		t.Fatalf("encodeRequestFrame: %v", err)
	}
	frame := append([]byte(nil), *bp...)
	putFrameBuf(bp)
	payload, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	got, err := decodeRequest(payload)
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	return got
}

func roundTripResponse(t *testing.T, resp Response) Response {
	t.Helper()
	bp := encodeResponseFrame(&resp)
	frame := append([]byte(nil), *bp...)
	putFrameBuf(bp)
	payload, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	got, err := decodeResp(payload)
	if err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	return got
}

// TestWireFixturesSetEveryField: the round-trip and property tests
// check only the fields the fixtures set, so a field added to Request
// or Response without codec support fails here until a fixture sets it.
func TestWireFixturesSetEveryField(t *testing.T) {
	for _, v := range []reflect.Value{reflect.ValueOf(fullRequest()), reflect.ValueOf(fullResponse())} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
				t.Errorf("full%s() leaves %s at its zero value", v.Type().Name(), f.Name)
			}
		}
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	req := fullRequest()
	got := roundTripRequest(t, req)
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("request round trip mismatch:\n have %+v\n want %+v", got, req)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	resp := fullResponse()
	got := roundTripResponse(t, resp)
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("response round trip mismatch:\n have %+v\n want %+v", got, resp)
	}
}

func TestWireZeroValueRoundTrip(t *testing.T) {
	if got := roundTripRequest(t, Request{Method: MethodPing}); !reflect.DeepEqual(got, Request{Method: MethodPing}) {
		t.Fatalf("zero request mismatch: %+v", got)
	}
	if got := roundTripResponse(t, Response{}); !reflect.DeepEqual(got, Response{}) {
		t.Fatalf("zero response mismatch: %+v", got)
	}
}

// TestWireUnknownMethodString covers the code-0 string escape for
// methods outside the static table (coordinator admin methods).
func TestWireUnknownMethodString(t *testing.T) {
	req := Request{Method: "custom/admin-method"}
	if got := roundTripRequest(t, req); got.Method != req.Method {
		t.Fatalf("method = %q, want %q", got.Method, req.Method)
	}
}

// TestWireMethodCodes: every method in the table travels as its one-byte
// code and decodes to itself; the codes are stable wire layout, and a
// method outside the table has none (it travels as a string).
func TestWireMethodCodes(t *testing.T) {
	if methodCode(MethodSwap) != 14 || methodCode(MethodTenants) != 0 || methodCode("") != 0 {
		t.Fatalf("codes: swap %d (want 14), tenants %d and empty %d (want 0)",
			methodCode(MethodSwap), methodCode(MethodTenants), methodCode(""))
	}
	for code, method := range methodNames {
		if method == "" {
			continue
		}
		if methodCode(method) != byte(code) {
			t.Errorf("%q encodes as %d, want %d", method, methodCode(method), code)
		}
		if got := roundTripRequest(t, Request{Method: method}); got.Method != method {
			t.Errorf("method = %q, want %q", got.Method, method)
		}
	}
}

// randomRequest builds a randomized request.
func randomRequest(rng *rand.Rand) Request {
	blob := func() []byte {
		n := rng.Intn(16)
		if n == 0 {
			return nil
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	req := Request{
		Method:    []string{MethodGet, MethodPut, MethodScan, MethodApply, "weird"}[rng.Intn(5)],
		Namespace: string(rune('a' + rng.Intn(26))),
		Key:       blob(),
		Value:     blob(),
		Start:     blob(),
		End:       blob(),
		Limit:     rng.Intn(2000) - 1000,
		Since:     rng.Uint64(),
		Epoch:     rng.Uint64(),
		Fence:     rng.Intn(2) == 0,
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.Projection = append(req.Projection, string(rune('p'+i)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.Preds = append(req.Preds, ScanPred{Column: "c", Op: ScanPredOp(rng.Intn(5)), Value: blob()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		req.Records = append(req.Records, record.Record{
			Key: blob(), Value: blob(), Version: rng.Uint64(), Tombstone: rng.Intn(2) == 0,
		})
	}
	return req
}

// TestWireRequestPropertyRoundTrip: encode/decode is identity over
// randomized requests.
func TestWireRequestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		req := randomRequest(rng)
		got := roundTripRequest(t, req)
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("iteration %d mismatch:\n have %+v\n want %+v", i, got, req)
		}
	}
}

// TestWireTruncatedFrames: every prefix of a valid message must decode
// with an error, never panic.
func TestWireTruncatedFrames(t *testing.T) {
	req := fullRequest()
	bp, err := encodeRequestFrame(&req)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), (*bp)[4:]...) // strip length prefix
	putFrameBuf(bp)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeRequest(payload[:n]); err == nil {
			t.Fatalf("truncated request at %d/%d decoded without error", n, len(payload))
		}
	}
	resp := fullResponse()
	rp := encodeResponseFrame(&resp)
	rpayload := append([]byte(nil), (*rp)[4:]...)
	putFrameBuf(rp)
	for n := 0; n < len(rpayload); n++ {
		if _, err := decodeResp(rpayload[:n]); err == nil {
			t.Fatalf("truncated response at %d/%d decoded without error", n, len(rpayload))
		}
	}
}

// TestWireOversizedClaims: corrupt lengths and counts claiming more
// than the frame holds must error without allocating for the claim.
func TestWireOversizedClaims(t *testing.T) {
	// A blob length of 2^40 inside a tiny frame.
	msg := []byte{wireVersion}
	msg = binary.AppendUvarint(msg, 1)       // ID
	msg = append(msg, methodCode(MethodGet)) // method
	msg = binary.AppendUvarint(msg, 1<<40)   // namespace length: absurd
	msg = append(msg, 'x')
	if _, err := decodeRequest(msg); err == nil {
		t.Fatal("absurd blob length decoded")
	}

	// A record count of 2^40.
	msg2 := []byte{wireVersion}
	msg2 = binary.AppendUvarint(msg2, 1)
	msg2 = append(msg2, methodCode(MethodApply))
	msg2 = binary.AppendUvarint(msg2, 0) // namespace
	msg2 = binary.AppendUvarint(msg2, 0) // key
	msg2 = binary.AppendUvarint(msg2, 0) // value
	msg2 = binary.AppendUvarint(msg2, 0) // start
	msg2 = binary.AppendUvarint(msg2, 0) // end
	msg2 = binary.AppendUvarint(msg2, 0) // limit
	msg2 = binary.AppendUvarint(msg2, 0) // projection count
	msg2 = binary.AppendUvarint(msg2, 0) // pred count
	msg2 = binary.AppendUvarint(msg2, 1<<40)
	if _, err := decodeRequest(msg2); err == nil {
		t.Fatal("absurd record count decoded")
	}

	// A frame header claiming more than maxFrameSize.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrameSize+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame header accepted: %v", err)
	}

	// A zero-length frame.
	if _, err := readFrame(bytes.NewReader(make([]byte, 4))); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// TestWireCorruptVarints: 10 bytes of 0x80 is an overlong varint.
func TestWireCorruptVarints(t *testing.T) {
	over := bytes.Repeat([]byte{0x80}, 11)
	msg := append([]byte{wireVersion}, over...)
	if _, err := decodeRequest(msg); err == nil {
		t.Fatal("overlong varint decoded")
	}
	if _, err := decodeResp(msg); err == nil {
		t.Fatal("overlong varint decoded as response")
	}
}

// TestWireVersionMismatch: a frame with the wrong version byte fails
// fast with a version error, not a garbled decode.
func TestWireVersionMismatch(t *testing.T) {
	if _, err := decodeRequest([]byte{wireVersion + 1, 0}); err == nil ||
		!strings.Contains(err.Error(), "wire version") {
		t.Fatalf("version mismatch not flagged: %v", err)
	}
}

// TestWireTrailingJunk: extra bytes after a complete message are a
// protocol error, not silently ignored.
func TestWireTrailingJunk(t *testing.T) {
	req := Request{Method: MethodPing}
	bp, err := encodeRequestFrame(&req)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), (*bp)[4:]...)
	putFrameBuf(bp)
	payload = append(payload, 0xff)
	if _, err := decodeRequest(payload); err == nil {
		t.Fatal("trailing junk accepted")
	}
}

// multiGet is a multi-get and its answer: one live key, one tombstone.
func multiGet() (Request, Response) {
	return Request{Method: MethodBatch, Namespace: "users", Records: []record.Record{{Key: []byte("a")}, {Key: []byte("b")}}},
		Response{Found: true, Records: []record.Record{{Value: []byte("va"), Version: 3}, {Version: 4, Tombstone: true}}}
}

func FuzzDecodeRequest(f *testing.F) {
	multi, _ := multiGet()
	for _, req := range []Request{fullRequest(), multi, {Method: MethodPing}, {Method: "x"}} {
		bp, err := encodeRequestFrame(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), (*bp)[4:]...))
		putFrameBuf(bp)
	}
	f.Add([]byte{wireVersion})
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeRequest(b)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same value.
		bp, err := encodeRequestFrame(&req)
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		payload := append([]byte(nil), (*bp)[4:]...)
		putFrameBuf(bp)
		again, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("re-encode not stable:\n have %+v\n want %+v", again, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	_, multi := multiGet()
	for _, resp := range []Response{fullResponse(), multi, {}} {
		bp := encodeResponseFrame(&resp)
		f.Add(append([]byte(nil), (*bp)[4:]...))
		putFrameBuf(bp)
	}
	f.Add([]byte{wireVersion, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeResp(b)
		if err != nil {
			return
		}
		bp := encodeResponseFrame(&resp)
		payload := append([]byte(nil), (*bp)[4:]...)
		putFrameBuf(bp)
		again, err := decodeResp(payload)
		if err != nil {
			t.Fatalf("re-decode of re-encoded response failed: %v", err)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("re-encode not stable:\n have %+v\n want %+v", again, resp)
		}
	})
}

func BenchmarkEncodeRequestFrame(b *testing.B) {
	req := fullRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bp, err := encodeRequestFrame(&req)
		if err != nil {
			b.Fatal(err)
		}
		putFrameBuf(bp)
	}
}

func BenchmarkDecodeScanResponse(b *testing.B) {
	resp := Response{ID: 1, Found: true}
	for i := 0; i < 64; i++ {
		resp.Records = append(resp.Records, record.Record{
			Key:     []byte("user:0000000000"),
			Value:   bytes.Repeat([]byte("v"), 100),
			Version: uint64(i),
		})
	}
	bp := encodeResponseFrame(&resp)
	payload := append([]byte(nil), (*bp)[4:]...)
	putFrameBuf(bp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResp(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireRequestDecodeDetaches: request byte fields must not alias
// the frame buffer — the server reuses its read buffer across frames
// and storage retains applied records indefinitely.
func TestWireRequestDecodeDetaches(t *testing.T) {
	req := fullRequest()
	bp, err := encodeRequestFrame(&req)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), (*bp)[4:]...)
	putFrameBuf(bp)
	got, err := decodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xAA // scribble over the frame, as buffer reuse would
	}
	want := fullRequest()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded request shares memory with the frame buffer:\n have %+v\n want %+v", got, want)
	}
}

// TestWireResponseDecodeAliases pins the other half of the ownership
// contract: response byte fields alias the exactly-sized frame buffer
// (that is what makes scan pages O(1) allocations), so the buffer
// must not be reused.
func TestWireResponseDecodeAliases(t *testing.T) {
	resp := Response{ID: 1, Found: true, Value: []byte("alias-me")}
	bp := encodeResponseFrame(&resp)
	payload := append([]byte(nil), (*bp)[4:]...)
	putFrameBuf(bp)
	got, err := decodeResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(payload, []byte("alias-me"))
	if at < 0 {
		t.Fatal("value bytes not found in frame")
	}
	payload[at] ^= 0xFF
	if string(got.Value) == "alias-me" {
		t.Fatal("response decode copied; expected aliasing of the frame buffer")
	}
}

// TestWireEncodeOverflow: an encoding past the frame limit must fail
// the request cleanly (semantic error, not unreachable) and replace
// the response with an error response under the same correlation ID.
func TestWireEncodeOverflow(t *testing.T) {
	req := Request{Method: MethodPut, Value: bytes.Repeat([]byte("x"), 4096)}
	if _, err := encodeRequestFrameLimit(&req, 1024); err == nil {
		t.Fatal("oversized request encoded")
	} else if IsUnreachable(err) {
		t.Fatalf("overflow misclassified as unreachable: %v", err)
	}

	// Appended behind a frame already in the buffer, as the server's
	// read loop does.
	resp := Response{ID: 77, Found: true, Value: bytes.Repeat([]byte("y"), 4096)}
	b := appendResponseFrame(appendResponseFrame(nil, &Response{ID: 1}, 1024), &resp, 1024)
	first := 4 + int(binary.LittleEndian.Uint32(b))
	if n := int(binary.LittleEndian.Uint32(b[first:])); first+4+n != len(b) {
		t.Fatalf("second frame's prefix says %d bytes, %d follow it", n, len(b)-first-4)
	}
	got, err := decodeResp(b[first+4:])
	if err != nil {
		t.Fatalf("substituted error response did not decode: %v", err)
	}
	if got.ID != 77 {
		t.Fatalf("substituted response lost correlation ID: %+v", got)
	}
	if got.Error() == nil || !strings.Contains(got.Err, "exceeds size limit") {
		t.Fatalf("substituted response error = %q", got.Err)
	}
}

// TestWireFramePoolDropsHugeBuffers: a buffer that ballooned past
// maxPooledFrame must not come back from the pool.
func TestWireFramePoolDropsHugeBuffers(t *testing.T) {
	huge := make([]byte, 0, maxPooledFrame+1)
	putFrameBuf(&huge)
	small := make([]byte, 0, 16)
	putFrameBuf(&small)
	for i := 0; i < 64; i++ {
		bp := getFrameBuf()
		if cap(*bp) > maxPooledFrame {
			t.Fatalf("pool returned a %d-cap buffer (limit %d)", cap(*bp), maxPooledFrame)
		}
	}
}
