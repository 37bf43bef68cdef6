package scads

import (
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/consistency"
)

// ContentionEvent records one §3.3.1 requirement contention: real-world
// conditions (a partition, congested links) made two declared
// requirements unsatisfiable at once, and the namespace's priority
// ordering decided which to sacrifice. The paper requires that
// "failures of this type will be noted and used as input to the
// manager functions that re-provision the system in the future, either
// automatically or by notifying operators" — the cluster keeps a
// bounded log of them, exposes counters to the director, and invokes
// the operator callback when one is set.
type ContentionEvent struct {
	// At is the cluster-clock time of the contention.
	At time.Time
	// Table whose spec the contended read was under (the read itself
	// may have been of an index the table drives).
	Table string
	// Won is the axis the declared priority order preserved; Sacrificed
	// is the axis given up. With read-consistency prioritised the read
	// fails (availability sacrificed); with availability prioritised the
	// read serves data older than the staleness bound (read-consistency
	// sacrificed).
	Won        consistency.Axis
	Sacrificed consistency.Axis
	// StaleServed reports whether a stale value was returned (true only
	// when availability won and a stale replica answered).
	StaleServed bool
}

// maxContentionEvents bounds the in-memory log; older events are
// dropped once counters have absorbed them.
const maxContentionEvents = 1024

// contentionLog is the cluster's bounded event log plus counters.
type contentionLog struct {
	mu     sync.Mutex
	events []ContentionEvent
	total  int64
	stale  int64 // availability won: stale data served
	failed int64 // read-consistency won: reads failed

	onEvent func(ContentionEvent)
}

func (l *contentionLog) record(ev ContentionEvent) {
	l.mu.Lock()
	l.total++
	if ev.Sacrificed == consistency.AxisReadConsistency {
		l.stale++
	} else {
		l.failed++
	}
	l.events = append(l.events, ev)
	if len(l.events) > maxContentionEvents {
		l.events = l.events[len(l.events)-maxContentionEvents:]
	}
	cb := l.onEvent
	l.mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

// bounds is what the router asks the coordinator about the declared
// staleness bounds (partition.Bounds): the replication tracker against
// the governing spec's bound, the spec's priority order when only
// replicas over it can answer a read, and the note that choice leaves
// for the director and the operators either way.
type bounds struct{ c *Cluster }

// governing returns the spec a storage namespace is read under: its
// table's, or for an index its driving table's — the table whose bound
// index maintenance replicates it under. It reads the snapshot
// publishBounds left, so the router's question costs a read one map
// lookup and no lock.
func (b bounds) governing(ns string) consistency.Spec {
	return (*b.c.governed.Load())[ns]
}

// publishBounds republishes which spec each storage namespace is read
// under. DefineSchema and ApplyConsistency call it, holding c.mu, after
// changing either side of that mapping.
func (c *Cluster) publishBounds() {
	g := make(map[string]consistency.Spec)
	for _, def := range c.plans.Indexes {
		g[def.Namespace] = c.specs[def.Driving]
	}
	for t, spec := range c.specs {
		g[c.tableNS[t]] = spec
	}
	c.governed.Store(&g)
}

func (b bounds) Stale(ns, nodeID string) bool {
	bound := b.governing(ns).Staleness
	return bound > 0 && b.c.pump.Tracker().Staleness(ns, nodeID) > bound
}

func (b bounds) ServeStale(ns string) bool {
	return !b.governing(ns).Prefers(consistency.AxisReadConsistency, consistency.AxisAvailability)
}

func (b bounds) Contended(ns string, served bool) {
	ev := ContentionEvent{
		At: b.c.clk.Now(), Table: b.governing(ns).Namespace,
		Won: consistency.AxisReadConsistency, Sacrificed: consistency.AxisAvailability,
	}
	if served {
		ev.Won, ev.Sacrificed, ev.StaleServed = consistency.AxisAvailability, consistency.AxisReadConsistency, true
	}
	b.c.contention.record(ev)
}

func (b bounds) Clock() clock.Clock { return b.c.clk }

// ContentionStats aggregates requirement contentions since the cluster
// opened. The director reads these to learn that declared requirements
// were unsatisfiable — a re-provisioning signal distinct from latency
// SLA violations.
type ContentionStats struct {
	// Total contentions observed.
	Total int64
	// StaleServed counts contentions resolved by serving stale data
	// (availability prioritised).
	StaleServed int64
	// ReadsFailed counts contentions resolved by failing the read
	// (read-consistency prioritised).
	ReadsFailed int64
}

// Contention returns aggregate contention counters.
func (c *Cluster) Contention() ContentionStats {
	c.contention.mu.Lock()
	defer c.contention.mu.Unlock()
	return ContentionStats{
		Total:       c.contention.total,
		StaleServed: c.contention.stale,
		ReadsFailed: c.contention.failed,
	}
}

// ContentionEvents returns a copy of the recent contention event log
// (most recent last, bounded).
func (c *Cluster) ContentionEvents() []ContentionEvent {
	c.contention.mu.Lock()
	defer c.contention.mu.Unlock()
	out := make([]ContentionEvent, len(c.contention.events))
	copy(out, c.contention.events)
	return out
}

// OnContention registers the operator-notification callback, invoked
// synchronously on every contention. Pass nil to clear it.
func (c *Cluster) OnContention(fn func(ContentionEvent)) {
	c.contention.mu.Lock()
	c.contention.onEvent = fn
	c.contention.mu.Unlock()
}
