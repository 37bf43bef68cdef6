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

	"scads/internal/deadline"
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

// Queue is a thread-safe deadline heap of updates.
type Queue struct {
	mu sync.Mutex
	h  deadline.Heap[Update]
}

// NewQueue returns an empty queue with the given discipline.
func NewQueue(order Order) *Queue {
	return &Queue{h: deadline.New[Update](order == FIFO)}
}

// Push enqueues u.
func (q *Queue) Push(u Update) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.h.Push(u.Deadline, u)
}

// Pop removes and returns the most urgent update. ok is false when the
// queue is empty.
func (q *Queue) Pop() (Update, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.h.Pop()
	return it.Value, ok
}

// Len returns the number of pending updates.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Len()
}

// AtRisk counts pending updates whose deadline falls within margin of
// now — the "in danger of getting behind schedule" signal that feeds
// the director's provisioning decisions.
func (q *Queue) AtRisk(now time.Time, margin time.Duration) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Due(now, margin)
}

// ForEach visits every pending update under the queue lock (heap
// order, not priority order). fn must not call back into the queue.
// The pump's flip-time Rebind uses this to clone in-range updates to
// replicas a migration just added.
func (q *Queue) ForEach(fn func(Update)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for u := range q.h.Visit {
		fn(u)
	}
}
