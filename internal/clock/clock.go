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
	"runtime"
	"sync"
	"time"

	"scads/internal/deadline"
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
// when Advance or AdvanceTo is called; timer channels wait in a
// deadline heap and fire in its order (deadline, then the order of the
// After calls) during the advance. Virtual is safe for concurrent use.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters deadline.Heap[chan time.Time]
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
	v.waiters.Push(v.now.Add(d), ch)
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
	for w, ok := v.waiters.Peek(); ok && !w.Deadline.After(t); w, ok = v.waiters.Peek() {
		v.waiters.Pop()
		if w.Deadline.After(v.now) {
			v.now = w.Deadline
		}
		w.Value <- v.now
	}
	v.now = t
}

// Loop runs step on clk until stop is closed: first once wait has
// elapsed, then after whatever delay each step returns, at once when it
// returns zero. It is the one background loop: every periodic task of
// a coordinator is a step that reports when it next wants to run, and
// on a Virtual clock a test moves the loop by advancing time.
func Loop(clk Clock, stop <-chan struct{}, wait time.Duration, step func() time.Duration) {
	for {
		if wait > 0 {
			select {
			case <-stop:
				return
			case <-clk.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		wait = step()
	}
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
	return v.waiters.Len()
}
