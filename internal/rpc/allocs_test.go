//go:build !race

package rpc

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled frame buffers and result channels allocate and the count
// below does not hold; the pin runs in the plain build.

import "testing"

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
