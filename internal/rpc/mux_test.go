package rpc

// Tests for the multiplexed pipelined transport: interleaving
// correctness on one connection, per-call deadlines, transparent
// redial after a peer restart, and clean server shutdown. The
// benchmarks at the bottom time an apply round trip, alone and with
// many callers sharing the connection.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"scads/internal/record"
)

// TestMuxPipelinedInterleaving drives many concurrent calls through
// one transport — hence one multiplexed connection — and verifies
// every response matches its request. Run under -race in CI.
func TestMuxPipelinedInterleaving(t *testing.T) {
	addr, _, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()

	const goroutines = 64
	const callsPer = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				key := []byte(fmt.Sprintf("g%d-i%d", g, i))
				if _, err := tr.Call(addr, Request{Method: MethodPut, Key: key, Value: key}); err != nil {
					errs <- err
					return
				}
				resp, err := tr.Call(addr, Request{Method: MethodGet, Key: key})
				if err != nil {
					errs <- err
					return
				}
				if !resp.Found || !bytes.Equal(resp.Value, key) {
					errs <- fmt.Errorf("get %q = %+v", key, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := tr.numConns(); n != 1 {
		t.Fatalf("pipelined calls used %d conns, want 1 multiplexed conn", n)
	}
}

// slowHandler blocks MethodScan calls until released; everything else
// answers immediately.
type slowHandler struct {
	entered chan struct{}
	release chan struct{}
}

func (h *slowHandler) Serve(req Request) Response {
	if req.Method == MethodScan {
		h.entered <- struct{}{}
		<-h.release
		return Response{Found: true, Value: []byte("slow")}
	}
	return Response{Found: true}
}

// TestMuxSlowCallDoesNotBlockConnection: with a long scan in flight on
// the connection, pings behind it must still complete — the server
// dispatches frames concurrently instead of serving the connection in
// lockstep.
func TestMuxSlowCallDoesNotBlockConnection(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := NewTCPTransport()
	defer tr.Close()

	slowDone := make(chan Response, 1)
	go func() {
		resp, _ := tr.Call(addr, Request{Method: MethodScan})
		slowDone <- resp
	}()
	<-h.entered // the scan is parked inside its handler

	// 20 fast calls overtake it on the same connection.
	for i := 0; i < 20; i++ {
		if _, err := tr.Call(addr, Request{Method: MethodPing}); err != nil {
			t.Fatalf("ping %d behind a slow scan: %v", i, err)
		}
	}
	if n := tr.numConns(); n != 1 {
		t.Fatalf("fast calls escaped to %d conns; want overtaking on the 1 shared conn", n)
	}
	select {
	case <-slowDone:
		t.Fatal("slow scan completed before release")
	default:
	}
	close(h.release)
	resp := <-slowDone
	if string(resp.Value) != "slow" {
		t.Fatalf("slow scan resp = %+v", resp)
	}
}

// TestMuxServerRestartRedial is the stale-connection regression test:
// a server that bounces between calls must not surface as a spurious
// ErrUnreachable — the transport redials once transparently.
func TestMuxServerRestartRedial(t *testing.T) {
	h := newEchoHandler()
	s1 := NewServer(h)
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport()
	defer tr.Close()

	if _, err := tr.Call(addr, Request{Method: MethodPut, Key: []byte("k"), Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}

	// Bounce the server on the same address; the transport still holds
	// the now-dead multiplexed connection.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(h)
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer s2.Close()

	// One logical call, no caller-visible retry loop: the stale conn
	// fails, the transport redials, the call succeeds.
	resp, err := tr.Call(addr, Request{Method: MethodGet, Key: []byte("k")})
	if err != nil {
		t.Fatalf("call across server bounce = %v (spurious unreachable)", err)
	}
	if !resp.Found || string(resp.Value) != "v" {
		t.Fatalf("resp across bounce = %+v", resp)
	}
}

// TestMuxFreshDialFailureIsUnreachable: the redial courtesy applies
// only to stale pooled connections — a peer that is actually down
// still classifies unreachable on the first call.
func TestMuxFreshDialFailureIsUnreachable(t *testing.T) {
	tr := NewTCPTransport()
	tr.Timeout = 200 * time.Millisecond
	defer tr.Close()
	_, err := tr.Call("127.0.0.1:1", Request{Method: MethodPing})
	if !IsUnreachable(err) {
		t.Fatalf("dead peer error = %v, want unreachable", err)
	}
}

// TestMuxCallerIDNotMutated: correlation IDs are transport-internal;
// colliding caller-set IDs must not cross responses.
func TestMuxCallerIDNotMutated(t *testing.T) {
	addr, _, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("id-%d", i))
			// Every caller claims the same request ID.
			if _, err := tr.Call(addr, Request{ID: 5, Method: MethodPut, Key: key, Value: key}); err != nil {
				errs <- err
				return
			}
			resp, err := tr.Call(addr, Request{ID: 5, Method: MethodGet, Key: key})
			if err != nil {
				errs <- err
				return
			}
			if !resp.Found || !bytes.Equal(resp.Value, key) {
				errs <- fmt.Errorf("colliding-ID call got %+v for %q", resp, key)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxPerCallTimeout: a parked call times out on its own deadline
// while the connection keeps serving others.
func TestMuxPerCallTimeout(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(h.release) // let the parked handler drain at teardown
	tr := NewTCPTransport()
	tr.Timeout = 150 * time.Millisecond
	defer tr.Close()

	start := time.Now()
	_, err = tr.Call(addr, Request{Method: MethodScan})
	if !IsUnreachable(err) {
		t.Fatalf("timed-out call = %v, want unreachable-classified timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The connection survives for other traffic.
	if _, err := tr.Call(addr, Request{Method: MethodPing}); err != nil {
		t.Fatalf("ping after sibling timeout: %v", err)
	}
}

// blockingHandler parks every call until released, signalling entry.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
}

func (h *blockingHandler) Serve(req Request) Response {
	h.entered <- struct{}{}
	<-h.release
	return Response{Found: true}
}

// TestServerCloseJoinsHandlers: Server.Close must not return while a
// handler goroutine is still running (the shutdown race fixed in this
// change).
func TestServerCloseJoinsHandlers(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport()
	defer tr.Close()

	go tr.Call(addr, Request{Method: MethodPing}) //nolint:errcheck // the call dies with the server
	<-h.entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Server.Close returned while a handler was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Server.Close never returned after handlers finished")
	}
}

// TestMuxBrokenConnFailsInFlight: when the server dies mid-call, every
// pipelined in-flight call fails promptly with ErrUnreachable instead
// of hanging to its deadline.
func TestMuxBrokenConnFailsInFlight(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport()
	tr.Timeout = 10 * time.Second
	defer tr.Close()

	const inFlight = 8
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Either outcome is legal (response raced the close); the
			// assertion is that nothing hangs past the join below.
			tr.Call(addr, Request{Method: MethodPing}) //nolint:errcheck
		}()
	}
	for i := 0; i < inFlight; i++ {
		<-h.entered
	}
	close(h.release) // handlers finish, but the conn is about to die under them
	s.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight calls hung after server death")
	}
}

func benchPayloadRequest() Request {
	return Request{
		Method:    MethodApply,
		Namespace: "users",
		Records: []record.Record{
			{Key: []byte("user:000000000001"), Value: bytes.Repeat([]byte("v"), 128), Version: 1},
			{Key: []byte("user:000000000002"), Value: bytes.Repeat([]byte("w"), 128), Version: 2},
		},
	}
}

// BenchmarkRPCRoundTrip measures one apply round trip at a time.
func BenchmarkRPCRoundTrip(b *testing.B) {
	s := NewServer(newEchoHandler())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := NewTCPTransport()
	defer tr.Close()
	req := benchPayloadRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Call(addr, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCPipelined measures aggregate throughput with many
// callers sharing one multiplexed connection.
func BenchmarkRPCPipelined(b *testing.B) {
	s := NewServer(newEchoHandler())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := NewTCPTransport()
	defer tr.Close()
	req := benchPayloadRequest()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tr.Call(addr, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
