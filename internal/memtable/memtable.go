// Package memtable implements the in-memory ordered write buffer of
// the SCADS storage engine: a skiplist keyed by order-preserving
// encoded keys, holding versioned records (including tombstones) until
// they are flushed to an SSTable.
//
// All mutations use last-write-wins merge semantics on the record
// version, so replaying a WAL or applying replicated writes out of
// order converges to the same state (paper §3.3: "last write wins"
// eventual consistency is the baseline write-conflict policy).
package memtable

import (
	"bytes"
	"math"
	"math/rand"
	"sync"

	"scads/internal/record"
)

const (
	maxHeight = 12
	branching = 4
)

// Memtable is a concurrent ordered map from encoded key to Record.
// The zero value is not usable; call New.
type Memtable struct {
	mu     sync.RWMutex
	head   *node
	height int
	count  int
	bytes  int64
	minVer uint64 // lowest version Put has stored
	rnd    *rand.Rand
}

type node struct {
	rec  record.Record
	next [maxHeight]*node
}

// New returns an empty Memtable. The seed makes skiplist tower heights
// deterministic for reproducible tests; production callers pass any
// value.
func New(seed int64) *Memtable {
	return &Memtable{
		head:   &node{},
		height: 1,
		minVer: math.MaxUint64,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

// Put merges rec into the table with last-write-wins semantics: if an
// entry with the same key exists and supersedes rec, the table is
// unchanged. It reports whether rec was stored.
func (m *Memtable) Put(rec record.Record) bool {
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [maxHeight]*node
	n := m.findGreaterOrEqual(rec.Key, &prev)
	if n != nil && bytes.Equal(n.rec.Key, rec.Key) {
		if n.rec.Supersedes(rec) {
			return false
		}
		m.minVer = min(m.minVer, rec.Version)
		m.bytes += int64(rec.MemSize() - n.rec.MemSize())
		n.rec = rec
		return true
	}

	h := m.randomHeight()
	if h > m.height {
		for i := m.height; i < h; i++ {
			prev[i] = m.head
		}
		m.height = h
	}
	nn := &node{rec: rec}
	for i := 0; i < h; i++ {
		nn.next[i] = prev[i].next[i]
		prev[i].next[i] = nn
	}
	m.count++
	m.bytes += int64(rec.MemSize())
	m.minVer = min(m.minVer, rec.Version)
	return true
}

// MinVersion returns a lower bound on the versions the table holds: the
// lowest version Put has ever stored (replaced and range-deleted records
// still count), math.MaxUint64 before the first.
func (m *Memtable) MinVersion() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.minVer
}

// DeleteRange physically unlinks every entry with start <= key < end
// (nil bounds are infinite) and returns how many were removed. Unlike
// tombstoning, the records are simply gone — used by online range
// migration teardown, where a versioned tombstone would shadow the
// legitimately re-installed record if the range ever migrates back.
func (m *Memtable) DeleteRange(start, end []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [maxHeight]*node
	n := m.findGreaterOrEqual(start, &prev)
	removed := 0
	for n != nil && (end == nil || bytes.Compare(n.rec.Key, end) < 0) {
		next := n.next[0]
		for i := 0; i < m.height; i++ {
			if prev[i].next[i] == n {
				prev[i].next[i] = n.next[i]
			}
		}
		m.count--
		m.bytes -= int64(n.rec.MemSize())
		removed++
		n = next
	}
	return removed
}

// Get returns the record stored under key. Tombstones are returned
// with ok=true and Tombstone set; callers decide how to surface them.
func (m *Memtable) Get(key []byte) (record.Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.rec.Key, key) {
		return n.rec, true
	}
	return record.Record{}, false
}

// Scan visits records with start <= key < end in ascending key order,
// including tombstones, until fn returns false. A nil end means
// unbounded.
func (m *Memtable) Scan(start, end []byte, fn func(record.Record) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.findGreaterOrEqual(start, nil)
	for n != nil {
		if end != nil && bytes.Compare(n.rec.Key, end) >= 0 {
			return
		}
		if !fn(n.rec) {
			return
		}
		n = n.next[0]
	}
}

// All returns every record in ascending key order. Used when flushing
// to an SSTable.
func (m *Memtable) All() []record.Record {
	out := make([]record.Record, 0, m.Len())
	m.Scan(nil, nil, func(r record.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Len returns the number of entries (tombstones included).
func (m *Memtable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// Bytes returns the approximate memory footprint of stored records.
func (m *Memtable) Bytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// findGreaterOrEqual returns the first node whose key >= key, filling
// prev (when non-nil) with the rightmost node before that position at
// every level. Callers must hold m.mu.
func (m *Memtable) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].rec.Key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}
