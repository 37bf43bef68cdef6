package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

// echoHandler implements a tiny in-memory KV for exercising the wire.
type echoHandler struct {
	mu sync.Mutex
	kv map[string][]byte
}

func newEchoHandler() *echoHandler { return &echoHandler{kv: make(map[string][]byte)} }

func (h *echoHandler) Serve(req Request) Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch req.Method {
	case MethodPing:
		return Response{Found: true}
	case MethodPut:
		h.kv[string(req.Key)] = append([]byte(nil), req.Value...)
		return Response{Found: true, Version: 1}
	case MethodGet:
		v, ok := h.kv[string(req.Key)]
		return Response{Found: ok, Value: v}
	case MethodApply:
		for _, r := range req.Records {
			h.kv[string(r.Key)] = r.Value
		}
		return Response{Found: true}
	default:
		return Unimplemented(req)
	}
}

func startServer(t *testing.T) (addr string, h *echoHandler, cleanup func()) {
	t.Helper()
	h = newEchoHandler()
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, h, func() { s.Close() }
}

func TestTCPRoundTrip(t *testing.T) {
	addr, _, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()

	resp, err := tr.Call(addr, Request{Method: MethodPut, Namespace: "ns", Key: []byte("k"), Value: []byte("v")})
	if err != nil || resp.Error() != nil {
		t.Fatalf("put: %v / %v", err, resp.Error())
	}
	resp, err = tr.Call(addr, Request{Method: MethodGet, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || !bytes.Equal(resp.Value, []byte("v")) {
		t.Fatalf("get = %+v", resp)
	}
}

func TestTCPRecordsPayload(t *testing.T) {
	addr, h, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()

	recs := []record.Record{
		{Key: []byte("a"), Value: []byte("1"), Version: 10},
		{Key: []byte("b"), Value: []byte("2"), Version: 20, Tombstone: true},
	}
	if _, err := tr.Call(addr, Request{Method: MethodApply, Records: recs}); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if string(h.kv["a"]) != "1" || string(h.kv["b"]) != "2" {
		t.Fatalf("apply did not land: %v", h.kv)
	}
}

func TestTCPUnknownMethod(t *testing.T) {
	addr, _, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()
	resp, err := tr.Call(addr, Request{Method: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error() == nil || !strings.Contains(resp.Err, "unknown method") {
		t.Fatalf("want unknown-method error, got %+v", resp)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	addr, _, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()
	for i := 0; i < 20; i++ {
		if _, err := tr.Call(addr, Request{Method: MethodPing}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := tr.numConns(); n != 1 {
		t.Fatalf("live conns = %d, want 1 (sequential calls reuse one multiplexed conn)", n)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	addr, _, cleanup := startServer(t)
	defer cleanup()
	tr := NewTCPTransport()
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("k%d", i))
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
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	tr := NewTCPTransport()
	tr.Timeout = 200 * time.Millisecond
	defer tr.Close()
	// Port 1 on localhost should refuse immediately.
	if _, err := tr.Call("127.0.0.1:1", Request{Method: MethodPing}); err == nil {
		t.Fatal("call to closed port succeeded")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	addr, _, cleanup := startServer(t)
	tr := NewTCPTransport()
	tr.Timeout = time.Second
	defer tr.Close()
	if _, err := tr.Call(addr, Request{Method: MethodPing}); err != nil {
		t.Fatal(err)
	}
	cleanup()
	if _, err := tr.Call(addr, Request{Method: MethodPing}); err == nil {
		t.Fatal("call after server close succeeded")
	}
}

func TestLocalTransportBasics(t *testing.T) {
	lt := NewLocalTransport()
	h := newEchoHandler()
	lt.Register("node-1", h)

	resp, err := lt.Call("node-1", Request{Method: MethodPut, Key: []byte("k"), Value: []byte("v")})
	if err != nil || resp.Error() != nil {
		t.Fatalf("put: %v / %v", err, resp.Error())
	}
	resp, err = lt.Call("node-1", Request{Method: MethodGet, Key: []byte("k")})
	if err != nil || !resp.Found {
		t.Fatalf("get: %v %+v", err, resp)
	}
	if _, err := lt.Call("node-2", Request{Method: MethodPing}); err != ErrUnreachable {
		t.Fatalf("missing node: %v, want ErrUnreachable", err)
	}
}

func TestLocalTransportDownAndRecovery(t *testing.T) {
	lt := NewLocalTransport()
	lt.Register("n", newEchoHandler())
	lt.SetDown("n", true)
	if _, err := lt.Call("n", Request{Method: MethodPing}); err != ErrUnreachable {
		t.Fatalf("down node reachable: %v", err)
	}
	lt.SetDown("n", false)
	if _, err := lt.Call("n", Request{Method: MethodPing}); err != nil {
		t.Fatalf("recovered node unreachable: %v", err)
	}
	lt.Unregister("n")
	if _, err := lt.Call("n", Request{Method: MethodPing}); err != ErrUnreachable {
		t.Fatalf("unregistered node reachable: %v", err)
	}
}

func TestLocalTransportSimulatedLatency(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	lt := NewLocalTransport()
	lt.Clock = vc
	lt.Latency = 3 * time.Millisecond
	lt.Register("n", newEchoHandler())

	done := make(chan Response, 1)
	go func() {
		resp, _ := lt.Call("n", Request{Method: MethodPing})
		done <- resp
	}()
	for vc.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	vc.Advance(3 * time.Millisecond)
	select {
	case resp := <-done:
		if !resp.Found {
			t.Fatalf("resp = %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("latency-charged call never completed")
	}
}

// TestLocalTransportApplyDown: a severed update link stops applies and
// swaps while reads still reach the node.
func TestLocalTransportApplyDown(t *testing.T) {
	lt := NewLocalTransport()
	lt.Register("node", newEchoHandler())
	lt.SetApplyDown("node", true)
	for _, method := range []string{MethodApply, MethodSwap} {
		if _, err := lt.Call("node", Request{Method: method, Namespace: "ns"}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("%s crossed a severed link: %v", method, err)
		}
	}
	if _, err := lt.Call("node", Request{Method: MethodGet, Key: []byte("a")}); err != nil {
		t.Fatalf("read blocked: %v", err)
	}
}

func BenchmarkTCPPing(b *testing.B) {
	h := newEchoHandler()
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := NewTCPTransport()
	defer tr.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Call(addr, Request{Method: MethodPing}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalCall(b *testing.B) {
	lt := NewLocalTransport()
	lt.Register("n", newEchoHandler())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lt.Call("n", Request{Method: MethodPing}); err != nil {
			b.Fatal(err)
		}
	}
}
