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

// TestPingRoundTripAllocs pins what the transport and the server's
// dispatch themselves allocate per call, both ends being in this
// process: the client's exactly-sized response buffer and the handler
// goroutine's closure. (A request that carries bytes adds its arena.)
func TestPingRoundTripAllocs(t *testing.T) {
	s := NewServer(HandlerFunc(func(Request) Response { return Response{Found: true} }))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := NewTCPTransport()
	defer tr.Close()
	ping := func() {
		if resp, err := tr.Call(addr, Request{Method: MethodPing}); err != nil || !resp.Found {
			t.Fatalf("ping = %+v, %v", resp, err)
		}
	}
	ping() // dial
	if allocs := testing.AllocsPerRun(200, ping); allocs > 3 {
		t.Errorf("ping round trip allocates %.1f times, want <= 3", allocs)
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
		if _, err := decodeResponse(payload); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 0 || decode > 1 {
		t.Errorf("request encode allocates %.0f times, want 0; scan page decode %.0f, want <= 1", encode, decode)
	}
}
