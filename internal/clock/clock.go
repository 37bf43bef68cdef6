// Package clock provides a time source abstraction so that every
// simulation, staleness bound, and SLA window in SCADS can run against
// either the wall clock or a deterministic virtual clock.
//
// The virtual clock is the backbone of the reproduction: experiments
// such as the Animoto scale-up (three simulated days) complete in
// milliseconds of real time while preserving the exact ordering of
// timer events.
package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout SCADS.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the then-current time once
	// d has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// Since returns the time elapsed since t on this clock.
	Since(t time.Time) time.Duration
}

// Real is a Clock backed by the operating system clock.
type Real struct{}

// NewReal returns a Clock that reads the wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() } //lint:wallclock-ok Real IS the sanctioned wall-clock adapter every other package injects

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) } //lint:wallclock-ok Real IS the sanctioned wall-clock adapter every other package injects

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) } //lint:wallclock-ok Real IS the sanctioned wall-clock adapter every other package injects

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) } //lint:wallclock-ok Real IS the sanctioned wall-clock adapter every other package injects

// Virtual is a deterministic, manually advanced Clock. Time moves only
// when Advance or AdvanceTo is called; timer channels fire in deadline
// order during the advance. Virtual is safe for concurrent use.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64
}

// NewVirtual returns a Virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration {
	return v.Now().Sub(t)
}

// After implements Clock. The returned channel has capacity 1 so the
// advancing goroutine never blocks on delivery.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.seq++
	heap.Push(&v.waiters, &waiter{at: v.now.Add(d), ch: ch, seq: v.seq})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances
// the clock past the deadline.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the clock forward by d, firing every timer whose
// deadline falls within the window, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves the clock forward to t (no-op if t is not after the
// current time), firing timers in deadline order.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.Before(v.now) {
		return
	}
	for len(v.waiters) > 0 && !v.waiters[0].at.After(t) {
		w := heap.Pop(&v.waiters).(*waiter)
		if w.at.After(v.now) {
			v.now = w.at
		}
		w.ch <- v.now
	}
	v.now = t
}

// BlockUntilWaiters spins until at least n timers are pending on the
// clock — the synchronisation point for tests that must let another
// goroutine reach its Sleep/After before calling Advance.
func (v *Virtual) BlockUntilWaiters(n int) {
	for v.PendingTimers() < n {
		runtime.Gosched()
	}
}

// PendingTimers reports how many timers are waiting to fire.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

type waiter struct {
	at  time.Time
	ch  chan time.Time
	seq int64
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}
