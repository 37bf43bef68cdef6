// Package replication implements SCADS's asynchronous update
// propagation (§3.3.2). Every accepted write is owed to the other
// members of its key's replica set, and one rule says which: an update
// is owed to every member of the key's current replica set that has
// not received it since the set last changed. The pump reads the set
// from the routing map, so a range that moves, fails over or splits
// carries its pending updates along, and a member that left is owed
// nothing. Updates wait in a deadline priority queue, one per record,
// with a deadline derived from the namespace's declared staleness
// bound — the paper's central mechanism: "not only does the priority
// queue allow the system to complete important updates first, but it
// allows us to easily detect when it is in danger of getting behind
// schedule."
package replication

import (
	"slices"
	"sync"
	"time"

	"scads/internal/deadline"
	"scads/internal/record"
)

// Update is one accepted write still owed to some members of its
// key's replica set. It is the unit of the queue's order, of a Drain
// budget and of the deadline, but not of delivery: the pump sends the
// deliveries of one round that share a (Namespace, member) in one
// apply.
type Update struct {
	Namespace string
	Rec       record.Record
	// Replicas is the replica set the update is owed against: that of
	// the range holding Rec.Key when the pump last read the map.
	Replicas []string
	// owed marks the members of Replicas that may still lack the
	// record, bit i for Replicas[i]; a set has far fewer than 64
	// members.
	owed uint64
	// Deadline is when the update must be applied for the namespace's
	// staleness bound to hold.
	Deadline time.Time
	// EnqueuedAt is when the write was accepted; staleness is measured
	// from here.
	EnqueuedAt time.Time

	// Attempts counts the rounds since the set last changed in which
	// a delivery of this update failed on its own; the failed apply of
	// a group of several is not charged to its members.
	Attempts int
}

// owes reports whether member id of u's set may still lack the record.
func (u *Update) owes(id string) bool {
	i := slices.Index(u.Replicas, id)
	return i >= 0 && u.owed&(1<<i) != 0
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
