// Package partition maps each namespace's keyspace onto storage nodes
// by range (Map) and executes coordinator requests against those maps
// (Router). The Router owns the request-execution contract — a fence,
// a dead node and an overloaded node delay a request instead of
// failing it (retry.go) — so nothing above it reads a transport error.
//
// SCADS queries are bounded contiguous index scans (§3.1), so range
// partitioning guarantees any query touches at most a small constant
// number of adjacent partitions — the property behind the paper's
// "at most one read from a small constant number of computers".
package partition

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// Range is one contiguous slice of the keyspace assigned to a replica
// group. Start is inclusive (nil = beginning of keyspace), End is
// exclusive (nil = end of keyspace).
type Range struct {
	Start    []byte
	End      []byte
	Replicas []string // node IDs; Replicas[0] is the primary
	// Epoch names this publication of the range. Every change to the
	// range — a new replica set, or a split — publishes it under a
	// larger epoch drawn from its map's one counter, so a range that
	// changed and changed back does not read as unchanged.
	Epoch uint64
}

// Overlaps reports whether r intersects [start, end) (nil bounds are
// infinite).
func (r Range) Overlaps(start, end []byte) bool {
	if r.End != nil && start != nil && bytes.Compare(r.End, start) <= 0 {
		return false
	}
	if r.Start != nil && end != nil && bytes.Compare(end, r.Start) <= 0 {
		return false
	}
	return true
}

func (r Range) clone() Range {
	c := Range{Replicas: append([]string(nil), r.Replicas...), Epoch: r.Epoch}
	if r.Start != nil {
		c.Start = append([]byte(nil), r.Start...)
	}
	if r.End != nil {
		c.End = append([]byte(nil), r.End...)
	}
	return c
}

// String renders the range for logs.
func (r Range) String() string {
	s, e := "-inf", "+inf"
	if r.Start != nil {
		s = fmt.Sprintf("%x", r.Start)
	}
	if r.End != nil {
		e = fmt.Sprintf("%x", r.End)
	}
	return fmt.Sprintf("[%s,%s)->%v", s, e, r.Replicas)
}

// Errors returned by map mutations.
var (
	ErrBadSplit     = errors.New("partition: split point at range boundary")
	ErrNeedReplicas = errors.New("partition: replica set must be non-empty")
	// ErrReplicasChanged is returned by CompareAndSetReplicas when the
	// range was published again after the epoch the caller planned
	// against — another actor (a concurrent migration flip, the repair
	// manager's failover, a split) got there first. Callers re-read and
	// retry.
	ErrReplicasChanged = errors.New("partition: replica set changed concurrently")
)

// Map is the partition map of one namespace: an ordered list of
// contiguous ranges covering the whole keyspace. Safe for concurrent
// use.
//
// Invariant: a published slice is never written, so Lookup can hand
// out the map's own Range without copying it. Every mutation installs
// fresh slices instead of writing through the ones a reader may hold.
// Readers owe the same: a Range from Lookup or Overlapping is
// read-only.
type Map struct {
	mu     sync.RWMutex
	ranges []Range
	epoch  uint64 // the last epoch drawn
}

// NewMap returns a map with a single range covering everything,
// assigned to the given replica group.
func NewMap(replicas []string) (*Map, error) {
	if len(replicas) == 0 {
		return nil, ErrNeedReplicas
	}
	return &Map{ranges: []Range{{Replicas: append([]string(nil), replicas...)}}}, nil
}

// Lookup returns the range containing key. The result shares the
// map's slices (see the invariant on Map): it stays valid and unchanged
// across later mutations, and must not be written through.
func (m *Map) Lookup(key []byte) Range {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ranges[m.indexOf(key)]
}

// indexOf returns the index of the range containing key. Caller holds
// the lock. The map invariant (total coverage) guarantees a hit.
func (m *Map) indexOf(key []byte) int {
	lo, hi := 0, len(m.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		r := m.ranges[mid]
		if r.Start != nil && bytes.Compare(key, r.Start) < 0 {
			hi = mid
		} else if r.End != nil && bytes.Compare(key, r.End) >= 0 {
			lo = mid + 1
		} else {
			return mid
		}
	}
	return len(m.ranges) - 1
}

// Overlapping returns the ranges intersecting [start, end) in keyspace
// order. Like Lookup's, the ranges share the map's slices (see the
// invariant on Map): they stay unchanged across later mutations, and
// are read-only.
func (m *Map) Overlapping(start, end []byte) []Range {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Range
	for _, r := range m.ranges {
		if r.Overlaps(start, end) {
			out = append(out, r)
		}
	}
	return out
}

// spansOne reports whether [start, end) meets at most one range: the
// range holding start reaches end. It is len(Overlapping(start, end))
// <= 1 without building the slice.
func (m *Map) spansOne(start, end []byte) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rEnd := m.ranges[m.indexOf(start)].End
	return rEnd == nil || end != nil && bytes.Compare(end, rEnd) <= 0
}

// Ranges returns a copy of all ranges in keyspace order.
func (m *Map) Ranges() []Range {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Range, len(m.ranges))
	for i, r := range m.ranges {
		out[i] = r.clone()
	}
	return out
}

// Len returns the number of ranges.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ranges)
}

// Split divides the range containing at into [start, at) and
// [at, end), both initially assigned to the same replica group.
func (m *Map) Split(at []byte) error {
	if at == nil {
		return ErrBadSplit
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.indexOf(at)
	r := m.ranges[i]
	if r.Start != nil && bytes.Equal(r.Start, at) {
		return ErrBadSplit
	}
	left := r.clone()
	right := r.clone()
	left.End = append([]byte(nil), at...)
	right.Start = append([]byte(nil), at...)
	m.epoch += 2
	left.Epoch, right.Epoch = m.epoch-1, m.epoch
	m.ranges = append(m.ranges[:i:i], append([]Range{left, right}, m.ranges[i+1:]...)...)
	return nil
}

// SetReplicas reassigns the replica group of the range containing key.
func (m *Map) SetReplicas(key []byte, replicas []string) error {
	if len(replicas) == 0 {
		return ErrNeedReplicas
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setReplicas(m.indexOf(key), replicas)
	return nil
}

// setReplicas publishes ranges[i] with a copy of replicas under a fresh
// epoch and returns the epoch. Caller holds the write lock.
func (m *Map) setReplicas(i int, replicas []string) uint64 {
	m.epoch++
	m.ranges[i].Replicas, m.ranges[i].Epoch = append([]string(nil), replicas...), m.epoch
	return m.epoch
}

// CompareAndSetReplicas reassigns the replica group of the range
// containing key only if that range is still published under epoch,
// the Epoch of the Range its caller planned against, and returns the
// range's new epoch. The migration manager's routing flip and the
// repair manager's demotion and failover all go through this, so no
// reconfiguration of a range can silently overwrite another, nor land
// on a range split since it was planned: the loser gets
// ErrReplicasChanged and must re-read the map.
func (m *Map) CompareAndSetReplicas(key []byte, epoch uint64, replicas []string) (uint64, error) {
	if len(replicas) == 0 {
		return 0, ErrNeedReplicas
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.indexOf(key)
	if m.ranges[i].Epoch != epoch {
		return 0, ErrReplicasChanged
	}
	return m.setReplicas(i, replicas), nil
}

// NodesInUse returns the set of node IDs referenced by any range.
func (m *Map) NodesInUse() map[string]bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]bool)
	for _, r := range m.ranges {
		for _, id := range r.Replicas {
			out[id] = true
		}
	}
	return out
}

// Validate checks the map invariants: non-empty, contiguous, totally
// covering, every range has replicas.
func (m *Map) Validate() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.ranges) == 0 {
		return errors.New("partition: empty map")
	}
	if m.ranges[0].Start != nil {
		return errors.New("partition: first range does not start at -inf")
	}
	if m.ranges[len(m.ranges)-1].End != nil {
		return errors.New("partition: last range does not end at +inf")
	}
	for i, r := range m.ranges {
		if len(r.Replicas) == 0 {
			return fmt.Errorf("partition: range %d has no replicas", i)
		}
		if i > 0 {
			prev := m.ranges[i-1]
			if prev.End == nil || r.Start == nil || !bytes.Equal(prev.End, r.Start) {
				return fmt.Errorf("partition: gap or overlap between range %d and %d", i-1, i)
			}
			if r.End != nil && bytes.Compare(r.Start, r.End) >= 0 {
				return fmt.Errorf("partition: range %d is empty or inverted", i)
			}
		}
	}
	return nil
}
