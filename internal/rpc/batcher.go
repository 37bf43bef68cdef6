package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultMaxBatch bounds how many sub-requests a Batcher packs into
// one MethodBatch envelope.
const DefaultMaxBatch = 128

// Batcher wraps a Transport and coalesces concurrent calls to the
// same (address, method) pair into a single MethodBatch round-trip.
//
// It uses the leader/follower discipline of group commit rather than a
// timer: a call that finds no flight outstanding for its key goes
// straight through to the next transport — unwrapped, with nothing
// allocated for it — and every call that arrives while that flight is
// outstanding is packed into the next envelope, which the first caller
// sends before it returns. Sequential traffic therefore has zero added
// latency and an unchanged wire shape; batching kicks in exactly when
// concurrency makes it pay.
//
// Batches are homogeneous per method so transport-level failure
// modelling (for example LocalTransport.SetApplyDown severing only
// replication traffic) keeps working on the envelope.
type Batcher struct {
	next Transport

	// MaxBatch bounds sub-requests per envelope (DefaultMaxBatch when
	// zero). Set before first use.
	MaxBatch int

	mu      sync.Mutex
	pending map[batchKey]*batchQueue

	calls     atomic.Int64 // logical calls through the batcher
	envelopes atomic.Int64 // MethodBatch envelopes sent
	batched   atomic.Int64 // calls that travelled inside an envelope
}

type batchKey struct {
	addr   string
	method string
}

// maxIdleBatchQueues bounds how many keys keep their queue while idle.
// Past it an idle key's queue is dropped, as addresses of nodes that
// restarted elsewhere or were decommissioned would otherwise stay for
// the Batcher's lifetime.
const maxIdleBatchQueues = 1024

// batchQueue is one key's coalescing state. Queues are made on a key's
// first call and kept while there are few of them: there is one per
// (node, method), and the solo path must not allocate.
type batchQueue struct {
	calls  []*batchCall // followers waiting for the leader's next envelope
	leader bool         // a caller is in flight on this key and will pick up calls
}

type batchCall struct {
	req  Request
	resp Response
	err  error
	done chan struct{}
}

// NewBatcher wraps next with request coalescing.
func NewBatcher(next Transport) *Batcher {
	return &Batcher{next: next, pending: make(map[batchKey]*batchQueue)}
}

// BatcherStats counts coalescing activity: Batched/Envelopes is the
// mean envelope size; Calls-Batched calls travelled alone.
type BatcherStats struct {
	Calls     int64
	Envelopes int64
	Batched   int64
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Calls:     b.calls.Load(),
		Envelopes: b.envelopes.Load(),
		Batched:   b.batched.Load(),
	}
}

func (b *Batcher) maxBatch() int {
	if b.MaxBatch > 0 {
		return b.MaxBatch
	}
	return DefaultMaxBatch
}

// Call implements Transport. MethodBatch requests built by the caller
// pass straight through.
func (b *Batcher) Call(addr string, req Request) (Response, error) {
	b.calls.Add(1)
	if req.Method == MethodBatch {
		return b.next.Call(addr, req)
	}
	if IsControlMethod(req.Method) {
		// Control-plane probes bypass coalescing: wrapped in a
		// MethodBatch envelope they would lose their control
		// classification and queue behind data-plane work at a
		// saturated server instead of using its reserved headroom.
		return b.next.Call(addr, req)
	}
	key := batchKey{addr: addr, method: req.Method}
	b.mu.Lock()
	q := b.pending[key]
	if q == nil {
		q = &batchQueue{}
		b.pending[key] = q
	}
	if q.leader {
		// A leader is in flight on this key; it will pick us up.
		c := &batchCall{req: req, done: make(chan struct{})}
		q.calls = append(q.calls, c)
		b.mu.Unlock()
		<-c.done
		return c.resp, c.err
	}
	q.leader = true
	b.mu.Unlock()

	resp, err := b.next.Call(addr, req)
	for {
		b.mu.Lock()
		batch := q.calls
		q.calls = nil
		if len(batch) == 0 {
			q.leader = false
			if len(b.pending) > maxIdleBatchQueues {
				delete(b.pending, key)
			}
			b.mu.Unlock()
			return resp, err
		}
		if max := b.maxBatch(); len(batch) > max {
			q.calls = batch[max:]
			batch = batch[:max]
		}
		b.mu.Unlock()
		b.flush(addr, batch)
	}
}

func (b *Batcher) flush(addr string, batch []*batchCall) {
	if len(batch) == 1 {
		c := batch[0]
		c.resp, c.err = b.next.Call(addr, c.req)
		close(c.done)
		return
	}
	subs := make([]Request, len(batch))
	for i, c := range batch {
		subs[i] = c.req
	}
	resp, err := b.next.Call(addr, Request{Method: MethodBatch, Batch: subs})
	if err == nil && len(resp.Batch) != len(batch) {
		if e := resp.Error(); e != nil {
			err = e
		} else {
			err = errors.New("rpc: batch response arity mismatch")
		}
	}
	if err != nil {
		for _, c := range batch {
			c.err = err
			close(c.done)
		}
		return
	}
	b.envelopes.Add(1)
	b.batched.Add(int64(len(batch)))
	for i, c := range batch {
		c.resp = resp.Batch[i]
		close(c.done)
	}
}
