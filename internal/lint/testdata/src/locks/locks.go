// Package locks exercises the locksafety analyzer: Lock calls with no
// same-function release.
package locks

import "sync"

// Guarded couples a mutex with the data it guards.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// RW guards with a read-write lock.
type RW struct {
	mu sync.RWMutex
	n  int
}

// The lock/defer pair satisfies deferunlock.
func (g *Guarded) byPointer() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// leak takes the lock with no release path in this function.
func (g *Guarded) leak() {
	g.mu.Lock() // want `g\.mu\.Lock\(\) with no g\.mu\.Unlock\(\)`
	g.n++
}

// rleak releases the wrong side of the RWMutex.
func (r *RW) rleak() int {
	r.mu.RLock() // want `r\.mu\.RLock\(\) with no r\.mu\.RUnlock\(\)`
	n := r.n
	r.mu.Unlock()
	return n
}

// read pairs RLock with a deferred RUnlock: fine.
func (r *RW) read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// handoff deliberately leaves the lock held; the suppression reason
// says who releases it.
func (g *Guarded) handoff() {
	g.mu.Lock() //lint:deferunlock-ok fixture: released by the caller via byPointer's defer
	g.n++
}
