package rpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestControlHeadroomUnderScanFlood is the regression test for the
// handler-bound split: a scan flood that saturates every data-plane
// handler slot on a connection must leave the control reserve free, so
// a failure-detection ping still answers promptly (the repair detector
// stays quiet for a node that is merely busy) and the overflow is shed
// with a classified, retry-after-carrying overload error rather than
// queued behind the flood.
func TestControlHeadroomUnderScanFlood(t *testing.T) {
	dataSlots := maxConnHandlers - controlHandlerReserve
	flood := dataSlots + 52

	var blocked, returned atomic.Int64
	release := make(chan struct{})
	handler := HandlerFunc(func(req Request) Response {
		switch req.Method {
		case MethodScan:
			blocked.Add(1)
			<-release
			return Response{Found: true}
		case MethodPing:
			return Response{Found: true}
		default:
			return Unimplemented(req)
		}
	})

	srv := NewServer(handler)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := NewTCPTransport()
	tr.Timeout = 30 * time.Second
	defer tr.Close()

	errs := make([]error, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer returned.Add(1)
			resp, err := tr.Call(addr, Request{Method: MethodScan, Namespace: "ns"})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = resp.Error()
		}(i)
	}

	// Wait for the flood to occupy every data slot and for the rest of
	// it to come back: everything past the bound is shed as it arrives,
	// never parked. (Waiting for the slots alone would let a caller the
	// scheduler has not run yet send after release and find a slot.)
	deadline := time.Now().Add(10 * time.Second)
	for blocked.Load() < int64(dataSlots) || returned.Load() < int64(flood-dataSlots) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d data handlers blocked, %d/%d calls shed",
				blocked.Load(), dataSlots, returned.Load(), flood-dataSlots)
		}
		time.Sleep(time.Millisecond)
	}

	// The data plane is fully saturated. A ping must still get through
	// the control reserve immediately — pre-split, the read loop would
	// park on handler dispatch and the ping would sit unread until the
	// flood drained, tripping the failure detector.
	start := time.Now()
	resp, err := tr.Call(addr, Request{Method: MethodPing})
	pingLatency := time.Since(start)
	if err != nil {
		t.Fatalf("ping during scan flood: %v", err)
	}
	if e := resp.Error(); e != nil {
		t.Fatalf("ping shed during scan flood: %v", e)
	}
	if pingLatency > 5*time.Second {
		t.Fatalf("ping took %v under scan flood; control reserve not honored", pingLatency)
	}

	close(release)
	wg.Wait()

	var ok, shed int
	for _, e := range errs {
		switch {
		case e == nil:
			ok++
		case IsOverloaded(e):
			shed++
			if RetryAfter(e) != shedRetryAfter {
				t.Fatalf("shed retry-after hint = %v, want %v", RetryAfter(e), shedRetryAfter)
			}
		default:
			t.Fatalf("unexpected flood error: %v", e)
		}
	}
	if ok != dataSlots || shed != flood-dataSlots {
		t.Fatalf("flood outcome ok=%d shed=%d, want %d/%d", ok, shed, dataSlots, flood-dataSlots)
	}
	if got := blocked.Load(); got != int64(dataSlots) {
		t.Fatalf("handlers dispatched = %d, want exactly %d (sheds must not dispatch)", got, dataSlots)
	}
}
