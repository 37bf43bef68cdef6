// Package locks exercises the locksafety analyzer: copies of
// lock-bearing values and Lock calls with no same-function release.
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

// A value receiver copies the mutex on every call.
func (g Guarded) byValue() int { // want `receiver passes lock-bearing`
	return g.n
}

// The pointer receiver is the correct shape, and the lock/defer pair
// satisfies deferunlock.
func (g *Guarded) byPointer() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// A by-value parameter copies the caller's mutex into the frame.
func param(g Guarded) int { // want `parameter passes lock-bearing`
	return g.n
}

// Dereferencing into a new variable copies the lock.
func deref(g *Guarded) int {
	cp := *g // want `assignment copies lock-bearing`
	return cp.n
}

// Ranging by value copies each element's mutex per iteration.
func rangeCopy(gs []Guarded) int {
	total := 0
	for _, g := range gs { // want `range copies a lock-bearing value per iteration`
		total += g.n
	}
	return total
}

// Ranging over indices touches no lock.
func rangeIndex(gs []Guarded) int {
	total := 0
	for i := range gs {
		total += gs[i].n
	}
	return total
}

// A composite literal is a birth, not a copy.
func fresh() *Guarded {
	g := Guarded{n: 1}
	return &g
}

// new names a lock-bearing type, and copies no value.
func allocated() *Guarded {
	return new(Guarded)
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
