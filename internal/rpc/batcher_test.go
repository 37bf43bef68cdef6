package rpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// echoTransport answers every request (and every sub-request of an
// envelope) with Value = Key, optionally blocking the first call so a
// test can pile followers into the batcher deterministically.
type echoTransport struct {
	mu    sync.Mutex
	calls []Request

	arrived chan struct{} // closed when the first call is in flight
	release chan struct{} // first call blocks until closed
	once    sync.Once
}

func (t *echoTransport) Call(addr string, req Request) (Response, error) {
	t.mu.Lock()
	t.calls = append(t.calls, req)
	first := len(t.calls) == 1
	t.mu.Unlock()
	if first && t.release != nil {
		t.once.Do(func() { close(t.arrived) })
		<-t.release
	}
	if req.Method == MethodBatch {
		resp := Response{Found: true, Batch: make([]Response, len(req.Batch))}
		for i, sub := range req.Batch {
			resp.Batch[i] = Response{ID: sub.ID, Found: true, Value: sub.Key}
		}
		return resp, nil
	}
	return Response{Found: true, Value: req.Key}, nil
}

func (t *echoTransport) transportCalls() []Request {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Request(nil), t.calls...)
}

// TestBatcherCoalesces parks the leader's flight in the transport,
// piles follower calls into the queue, and verifies they travel as
// one MethodBatch envelope with positionally correct answers.
func TestBatcherCoalesces(t *testing.T) {
	const followers = 4
	et := &echoTransport{arrived: make(chan struct{}), release: make(chan struct{})}
	b := NewBatcher(et)

	leaderDone := make(chan Response, 1)
	go func() {
		resp, err := b.Call("node", Request{Method: MethodGet, Key: []byte("leader")})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- resp
	}()
	<-et.arrived

	followerDone := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			key := []byte(fmt.Sprintf("f%d", i))
			resp, err := b.Call("node", Request{Method: MethodGet, Key: key})
			if err == nil && string(resp.Value) != string(key) {
				err = fmt.Errorf("follower %d got %q", i, resp.Value)
			}
			followerDone <- err
		}(i)
	}
	// Wait until all followers are queued behind the in-flight leader.
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		q := b.pending[batchKey{addr: "node", method: MethodGet}]
		queued := 0
		if q != nil {
			queued = len(q.calls)
		}
		b.mu.Unlock()
		if queued == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers queued", queued, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(et.release)

	if resp := <-leaderDone; string(resp.Value) != "leader" {
		t.Fatalf("leader got %q", resp.Value)
	}
	for i := 0; i < followers; i++ {
		if err := <-followerDone; err != nil {
			t.Fatal(err)
		}
	}

	calls := et.transportCalls()
	if len(calls) != 2 {
		t.Fatalf("transport saw %d calls, want 2 (single + envelope)", len(calls))
	}
	if calls[0].Method != MethodGet {
		t.Fatalf("first flight method %q, want unwrapped get", calls[0].Method)
	}
	if calls[1].Method != MethodBatch || len(calls[1].Batch) != followers {
		t.Fatalf("second flight %q with %d subs, want batch of %d",
			calls[1].Method, len(calls[1].Batch), followers)
	}
	st := b.Stats()
	if st.Calls != followers+1 || st.Envelopes != 1 || st.Batched != followers {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatcherSequentialUnwrapped: without concurrency the batcher
// must not change the wire shape at all.
func TestBatcherSequentialUnwrapped(t *testing.T) {
	et := &echoTransport{}
	b := NewBatcher(et)
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		resp, err := b.Call("node", Request{Method: MethodGet, Key: key})
		if err != nil || string(resp.Value) != string(key) {
			t.Fatalf("call %d: %q, %v", i, resp.Value, err)
		}
	}
	for _, req := range et.transportCalls() {
		if req.Method == MethodBatch {
			t.Fatal("sequential call travelled in an envelope")
		}
	}
	if st := b.Stats(); st.Envelopes != 0 || st.Calls != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

// nullTransport answers at once and allocates nothing.
type nullTransport struct{}

func (nullTransport) Call(string, Request) (Response, error) { return Response{Found: true}, nil }

// TestBatcherSoloCallAllocs: a call that finds no flight on its key —
// every call of a sequential workload, and all of point_read_hot's —
// goes straight through: the Batcher adds no allocation to what the
// transport under it makes.
func TestBatcherSoloCallAllocs(t *testing.T) {
	var next nullTransport
	b := NewBatcher(next)
	req := Request{Method: MethodGet, Namespace: "tbl.users", Key: []byte("k")}
	b.Call("n1", req) // the key's queue is made once
	direct := testing.AllocsPerRun(200, func() { next.Call("n1", req) })
	through := testing.AllocsPerRun(200, func() {
		if resp, err := b.Call("n1", req); err != nil || !resp.Found {
			t.Fatalf("solo call = %+v, %v", resp, err)
		}
	})
	if through != direct {
		t.Errorf("solo Batcher.Call allocates %.0f times over the transport's %.0f, want 0 more", through-direct, direct)
	}
	if st := b.Stats(); st.Envelopes != 0 || st.Batched != 0 || st.Calls != 202 {
		t.Errorf("solo calls counted as %+v, want 202 calls and no envelope", st)
	}
}

// TestBatcherIdleQueuesBounded: addresses that are called once and
// never again (nodes restarted elsewhere, decommissioned) do not each
// leave a queue behind for the Batcher's lifetime.
func TestBatcherIdleQueuesBounded(t *testing.T) {
	b := NewBatcher(nullTransport{})
	for i := 0; i < 3*maxIdleBatchQueues; i++ {
		b.Call(fmt.Sprintf("node-%d", i), Request{Method: MethodGet})
	}
	if n := len(b.pending); n > maxIdleBatchQueues {
		t.Errorf("%d idle queues kept, bound %d", n, maxIdleBatchQueues)
	}
}

type failingTransport struct{ err error }

func (t *failingTransport) Call(addr string, req Request) (Response, error) {
	return Response{}, t.err
}

func TestBatcherErrorFansOut(t *testing.T) {
	want := errors.New("boom")
	b := NewBatcher(&failingTransport{err: want})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Call("node", Request{Method: MethodGet, Key: []byte("k")}); !errors.Is(err, want) {
				t.Errorf("got %v, want %v", err, want)
			}
		}()
	}
	wg.Wait()
}

// TestLocalTransportBatchApplyDown: a severed replication link must
// stop MethodBatch envelopes carrying applies while pure read
// envelopes still pass.
func TestLocalTransportBatchApplyDown(t *testing.T) {
	lt := NewLocalTransport()
	lt.Register("node", HandlerFunc(func(req Request) Response {
		if req.Method == MethodBatch {
			return ServeBatch(HandlerFunc(func(sub Request) Response {
				return Response{Found: true, Value: sub.Key}
			}), req)
		}
		return Response{Found: true, Value: req.Key}
	}))
	lt.SetApplyDown("node", true)

	applyBatch := Request{Method: MethodBatch, Batch: []Request{
		{Method: MethodApply, Namespace: "ns"},
		{Method: MethodApply, Namespace: "ns"},
	}}
	if _, err := lt.Call("node", applyBatch); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("apply envelope crossed a severed link: %v", err)
	}
	getBatch := Request{Method: MethodBatch, Batch: []Request{
		{Method: MethodGet, Key: []byte("a")},
		{Method: MethodGet, Key: []byte("b")},
	}}
	resp, err := lt.Call("node", getBatch)
	if err != nil {
		t.Fatalf("read envelope blocked: %v", err)
	}
	if len(resp.Batch) != 2 || string(resp.Batch[1].Value) != "b" {
		t.Fatalf("batch response = %+v", resp)
	}
}

func TestServeBatchPositional(t *testing.T) {
	h := HandlerFunc(func(req Request) Response {
		return Response{Found: true, Value: append([]byte("v:"), req.Key...)}
	})
	req := Request{ID: 9, Method: MethodBatch, Batch: []Request{
		{ID: 1, Method: MethodGet, Key: []byte("a")},
		{ID: 2, Method: MethodGet, Key: []byte("b")},
	}}
	resp := ServeBatch(h, req)
	if resp.ID != 9 || len(resp.Batch) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Batch[0].ID != 1 || string(resp.Batch[0].Value) != "v:a" {
		t.Fatalf("sub 0 = %+v", resp.Batch[0])
	}
	if resp.Batch[1].ID != 2 || string(resp.Batch[1].Value) != "v:b" {
		t.Fatalf("sub 1 = %+v", resp.Batch[1])
	}
}
