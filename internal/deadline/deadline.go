// Package deadline is SCADS's one deadline priority queue (§3.3.2):
// replication updates, index upkeep tasks, the virtual clock's timers
// and the staleness tracker's enqueue times all wait in a Heap. It
// pops the earliest deadline first and, among equal deadlines, the
// earliest arrival; a heap made by New(true) orders by arrival alone
// (the FIFO ablation). A Heap has no lock: each user holds its own.
//
// The sift steps are container/heap's, so a Heap lays out and pops its
// items exactly as heap.Push and heap.Pop over the same order would.
package deadline

import "time"

// Item is a queued value with its deadline and its place in arrival
// order.
type Item[T any] struct {
	Deadline time.Time
	Value    T
	seq      uint64
}

// Heap is a min-heap of items. The zero value orders by deadline, then
// arrival.
type Heap[T any] struct {
	items     []Item[T]
	arrivals  uint64
	byArrival bool
}

// New returns an empty heap: one that orders by arrival alone when
// byArrival is set (the FIFO ablation), else the zero Heap.
func New[T any](byArrival bool) Heap[T] { return Heap[T]{byArrival: byArrival} }

// Push queues v, due at deadline; it pops after every queued item it
// ties with.
func (h *Heap[T]) Push(deadline time.Time, v T) {
	h.arrivals++
	h.Requeue(Item[T]{Deadline: deadline, Value: v, seq: h.arrivals})
}

// Requeue puts back an item Pop returned, at its old place in the
// order.
func (h *Heap[T]) Requeue(it Item[T]) {
	h.items = append(h.items, it)
	for j := len(h.items) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

// Pop removes and returns the first item; ok is false when the heap is
// empty.
func (h *Heap[T]) Pop() (it Item[T], ok bool) {
	n := len(h.items) - 1
	if n < 0 {
		return it, false
	}
	h.items[0], h.items[n] = h.items[n], h.items[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	it, h.items[n] = h.items[n], it // drop the popped item's references
	h.items = h.items[:n]
	return it, true
}

// Peek returns the first item without removing it.
func (h *Heap[T]) Peek() (it Item[T], ok bool) {
	if len(h.items) == 0 {
		return it, false
	}
	return h.items[0], true
}

// Len reports how many items are queued.
func (h *Heap[T]) Len() int { return len(h.items) }

// Due counts the items whose deadline falls within margin of now — the
// "in danger of getting behind schedule" signal.
func (h *Heap[T]) Due(now time.Time, margin time.Duration) int {
	limit, n := now.Add(margin), 0
	for i := range h.items {
		if !h.items[i].Deadline.After(limit) {
			n++
		}
	}
	return n
}

// Visit yields every queued value in heap order, not pop order; it
// ranges as an iterator: for v := range h.Visit.
func (h *Heap[T]) Visit(yield func(T) bool) {
	for i := range h.items {
		if !yield(h.items[i].Value) {
			return
		}
	}
}

func (h *Heap[T]) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if !h.byArrival && !a.Deadline.Equal(b.Deadline) {
		return a.Deadline.Before(b.Deadline)
	}
	return a.seq < b.seq
}
