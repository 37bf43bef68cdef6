//go:build !race

package rpc

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled frame buffers and result channels allocate and the count
// below does not hold; the pin runs in the plain build.

import (
	"bytes"
	"testing"

	"scads/internal/record"
)

// roundTripAllocs serves req with a no-op handler over a real socket
// and returns what one round trip allocates, both ends being in this
// process.
func roundTripAllocs(t *testing.T, req Request) float64 {
	s := NewServer(HandlerFunc(func(Request) Response { return Response{Found: true} }))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := NewTCPTransport()
	defer tr.Close()
	call := func() {
		if resp, err := tr.Call(addr, req); err != nil || !resp.Found {
			t.Fatalf("round trip = %+v, %v", resp, err)
		}
	}
	call() // dial
	return testing.AllocsPerRun(200, call)
}

// TestPingRoundTripAllocs pins what the transport and the server's
// dispatch themselves allocate per call: nothing. The request goes to a
// standing worker by value and the response, which carries no bytes, is
// decoded in place in the client's read buffer. (A request that carries
// bytes adds its arena, and so does a response.)
func TestPingRoundTripAllocs(t *testing.T) {
	if allocs := roundTripAllocs(t, Request{Method: MethodPing}); allocs > 0 {
		t.Errorf("ping round trip allocates %.1f times, want 0", allocs)
	}
}

// TestGetRoundTripAllocs pins the same for a get, which the server
// serves on the connection's read loop, the request borrowed from the
// read buffer instead of detached into an arena and the response frame
// appended to the connection's buffer. A found value would add the
// client's arena for it.
func TestGetRoundTripAllocs(t *testing.T) {
	if allocs := roundTripAllocs(t, Request{Method: MethodGet, Key: []byte("user:0000000001")}); allocs > 0 {
		t.Errorf("get round trip allocates %.1f times, want 0", allocs)
	}
}

// TestApplyRoundTripAllocs pins the replication shape: an apply of two
// versioned records with 128-byte values, served by a standing worker.
// Measured 2: the detached request's arena and records slice (5 when
// each request had a goroutine of its own and each response a buffer).
func TestApplyRoundTripAllocs(t *testing.T) {
	if allocs := roundTripAllocs(t, benchPayloadRequest()); allocs > 2 {
		t.Errorf("apply round trip allocates %.1f times, want <= 2", allocs)
	}
}

// TestCodecAllocs pins the wire codec: encoding a request that sets
// every field reuses a pooled frame and allocates nothing, and decoding
// a 64-record scan page allocates once (the records slice; the byte
// fields alias the frame).
func TestCodecAllocs(t *testing.T) {
	req := fullRequest()
	encode := testing.AllocsPerRun(200, func() {
		bp, err := encodeRequestFrame(&req)
		if err != nil {
			t.Fatal(err)
		}
		putFrameBuf(bp)
	})
	page := Response{ID: 1, Found: true}
	for i := 0; i < 64; i++ {
		page.Records = append(page.Records, record.Record{
			Key: []byte("user:0000000000"), Value: bytes.Repeat([]byte("v"), 100), Version: uint64(i),
		})
	}
	bp := encodeResponseFrame(&page)
	payload := append([]byte(nil), (*bp)[4:]...)
	putFrameBuf(bp)
	decode := testing.AllocsPerRun(200, func() {
		if _, err := decodeResp(payload); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 0 || decode > 1 {
		t.Errorf("request encode allocates %.0f times, want 0; scan page decode %.0f, want <= 1", encode, decode)
	}
}
