// Package replication implements SCADS's asynchronous update
// propagation (§3.3.2): every accepted write is enqueued once per
// secondary replica with a deadline derived from the namespace's
// declared staleness bound, and a pump drains the queue in deadline
// order. The deadline priority queue is the paper's central mechanism
// — "not only does the priority queue allow the system to complete
// important updates first, but it allows us to easily detect when it
// is in danger of getting behind schedule."
package replication

import (
	"sync"
	"time"

	"scads/internal/record"
)

// Update is one pending propagation of a record to one target replica.
// It is the unit of the queue's order, of a Drain budget and of all
// accounting (attempts, violations, staleness), but not of delivery:
// the pump sends the updates of one round that share a (Namespace,
// Target) in one apply.
type Update struct {
	Namespace string
	Rec       record.Record
	Target    string // node ID
	// Deadline is when the update must be applied for the namespace's
	// staleness bound to hold.
	Deadline time.Time
	// EnqueuedAt is when the write was accepted; staleness is measured
	// from here.
	EnqueuedAt time.Time

	// Attempts counts the deliveries of this update that failed on their
	// own; the failed apply of a group of several is not charged to its
	// members.
	Attempts int
}

// Order selects the queue discipline.
type Order int

const (
	// ByDeadline pops the most urgent update first (the SCADS design).
	ByDeadline Order = iota
	// FIFO pops in arrival order (the ablation baseline).
	FIFO
)

// Queue is a thread-safe priority queue of updates.
type Queue struct {
	order Order

	mu   sync.Mutex
	h    []queued // a heap under queuedLess
	seq  int64
	size int
}

// NewQueue returns an empty queue with the given discipline.
func NewQueue(order Order) *Queue {
	return &Queue{order: order}
}

// Push enqueues u.
func (q *Queue) Push(u Update) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	q.h = heapPush(q.h, queued{u: u, seq: q.seq, byDeadline: q.order == ByDeadline}, queuedLess)
	q.size++
}

// Pop removes and returns the most urgent update. ok is false when the
// queue is empty.
func (q *Queue) Pop() (Update, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return Update{}, false
	}
	var it queued
	it, q.h = heapPop(q.h, queuedLess)
	q.size--
	return it.u, true
}

// Len returns the number of pending updates.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// AtRisk counts pending updates whose deadline falls within margin of
// now — the "in danger of getting behind schedule" signal that feeds
// the director's provisioning decisions.
func (q *Queue) AtRisk(now time.Time, margin time.Duration) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	limit := now.Add(margin)
	n := 0
	for _, it := range q.h {
		if !it.u.Deadline.After(limit) {
			n++
		}
	}
	return n
}

// ForEach visits every pending update under the queue lock (heap
// order, not priority order). fn must not call back into the queue.
// The pump's flip-time Rebind uses this to clone in-range updates to
// replicas a migration just added.
func (q *Queue) ForEach(fn func(Update)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.h {
		fn(it.u)
	}
}

type queued struct {
	u          Update
	seq        int64
	byDeadline bool
}

// queuedLess orders the heap: by deadline under ByDeadline, arrival
// order otherwise and among equal deadlines.
func queuedLess(a, b *queued) bool {
	if a.byDeadline && !a.u.Deadline.Equal(b.u.Deadline) {
		return a.u.Deadline.Before(b.u.Deadline)
	}
	return a.seq < b.seq
}

// heapPush and heapPop are container/heap's Push and Pop on a typed
// slice — the same sift steps, so the same layout and pop order — minus
// the boxing of every element through `any` on the way in and out.
func heapPush[T any](h []T, x T, less func(a, b *T) bool) []T {
	h = append(h, x)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func heapPop[T any](h []T, less func(a, b *T) bool) (T, []T) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && less(&h[r], &h[j]) {
			j = r
		}
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	top := h[n]
	var zero T
	h[n] = zero // drop the popped element's references
	return top, h[:n]
}
