package replication

import (
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/deadline"
)

// Tracker maintains per-(namespace, replica) staleness watermarks: the
// oldest accepted-but-undelivered write determines how stale a replica
// may be. The consistency layer consults it to decide whether a read
// from a given replica can violate the declared staleness bound — the
// paper's rule that "a client query would stall until the updates can
// be confirmed" when a bound is at risk.
type Tracker struct {
	clk clock.Clock

	mu   sync.Mutex
	keys map[trackKey]*pendingSet
}

type trackKey struct {
	namespace string
	node      string
}

// NewTracker returns an empty tracker.
func NewTracker(clk clock.Clock) *Tracker {
	return &Tracker{clk: clk, keys: make(map[trackKey]*pendingSet)}
}

func (t *Tracker) pending(namespace, node string, enqueuedAt time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := trackKey{namespace, node}
	ps, ok := t.keys[k]
	if !ok {
		ps = &pendingSet{live: make(map[int64]int)}
		t.keys[k] = ps
	}
	ps.add(enqueuedAt)
}

func (t *Tracker) done(namespace, node string, enqueuedAt time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps, ok := t.keys[trackKey{namespace, node}]; ok {
		ps.remove(enqueuedAt)
	}
}

// Staleness returns an upper bound on how stale reads from node may be
// for the namespace: the age of the oldest undelivered update, or zero
// when the replica is fully caught up.
func (t *Tracker) Staleness(namespace, node string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps, ok := t.keys[trackKey{namespace, node}]
	if !ok {
		return 0
	}
	oldest, ok := ps.min()
	if !ok {
		return 0
	}
	return max(t.clk.Now().Sub(oldest), 0)
}

// pendingSet is a multiset of enqueue times with O(log n) min: the
// times wait in a deadline heap, which may hold times no longer
// outstanding below its top, never at it — remove prunes from the top,
// so the heap is bounded by what was added since the oldest
// outstanding time, whether or not anybody asks for the minimum.
type pendingSet struct {
	h    deadline.Heap[struct{}]
	live map[int64]int // unixNano -> outstanding count
}

func (ps *pendingSet) add(t time.Time) {
	ps.live[t.UnixNano()]++
	ps.h.Push(t, struct{}{})
}

func (ps *pendingSet) remove(t time.Time) {
	n := t.UnixNano()
	if c := ps.live[n]; c > 1 {
		ps.live[n] = c - 1
	} else {
		delete(ps.live, n)
	}
	for top, ok := ps.h.Peek(); ok && ps.live[top.Deadline.UnixNano()] == 0; top, ok = ps.h.Peek() {
		ps.h.Pop()
	}
}

func (ps *pendingSet) min() (time.Time, bool) {
	top, ok := ps.h.Peek()
	return top.Deadline, ok
}
