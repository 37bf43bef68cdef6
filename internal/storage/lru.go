package storage

import (
	"container/list"
	"strconv"
	"sync"
)

// cacheShards stripes both engine caches (a power of two).
const cacheShards = 16

// lru is the sharded, byte-bounded LRU map under Cache and BlockCache.
// Entries are striped across shards by a hash the caller supplies (the
// caller computes it, not a func field or a method on K, so a key built
// on the caller's stack stays there), so concurrent users of different
// keys rarely meet on one lock. Each shard evicts from its cold end
// once it holds more than its share of the byte budget, but never its
// last entry: one oversized value is cached rather than thrashed.
type lru[K comparable, V any] struct {
	shards []lruShard[K, V]
}

type lruShard[K comparable, V any] struct {
	mu       sync.Mutex
	order    *list.List // of *lruEntry[K, V]; front = most recently used
	entries  map[K]*list.Element
	bytes    int64
	maxBytes int64

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// newLRU returns an LRU holding at most totalBytes across shards (shard
// count rounded up to a power of two, minimum 1).
func newLRU[K comparable, V any](totalBytes int64, shards int) *lru[K, V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	l := &lru[K, V]{shards: make([]lruShard[K, V], n)}
	for i := range l.shards {
		l.shards[i] = lruShard[K, V]{
			order:    list.New(),
			entries:  make(map[K]*list.Element),
			maxBytes: max(totalBytes/int64(n), 1),
		}
	}
	return l
}

func (l *lru[K, V]) shard(hash uint32) *lruShard[K, V] {
	return &l.shards[hash&uint32(len(l.shards)-1)]
}

// get returns the value stored under k and marks it most recently used.
func (l *lru[K, V]) get(hash uint32, k K) (v V, ok bool) {
	s := l.shard(hash)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.order.MoveToFront(el)
		v = el.Value.(*lruEntry[K, V]).val
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v, ok
}

// put stores v under k, charged size bytes, replacing any earlier value.
func (l *lru[K, V]) put(hash uint32, k K, v V, size int64) {
	e := &lruEntry[K, V]{key: k, val: v, size: size}
	s := l.shard(hash)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.bytes -= el.Value.(*lruEntry[K, V]).size
		el.Value = e
		s.order.MoveToFront(el)
	} else {
		s.entries[k] = s.order.PushFront(e)
	}
	s.bytes += size
	for s.bytes > s.maxBytes && s.order.Len() > 1 {
		s.drop(s.order.Back())
		s.evictions++
	}
	s.mu.Unlock()
}

// drop unlinks one entry. Caller holds s.mu.
func (s *lruShard[K, V]) drop(el *list.Element) {
	e := s.order.Remove(el).(*lruEntry[K, V])
	delete(s.entries, e.key)
	s.bytes -= e.size
}

// remove drops the entry under k, if any.
func (l *lru[K, V]) remove(hash uint32, k K) {
	s := l.shard(hash)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.drop(el)
	}
	s.mu.Unlock()
}

// removeIf drops every entry whose key satisfies match.
func (l *lru[K, V]) removeIf(match func(K) bool) {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for k, el := range s.entries {
			if match(k) {
				s.drop(el)
			}
		}
		s.mu.Unlock()
	}
}

// CacheStats summarises cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// stats returns a snapshot across all shards.
func (l *lru[K, V]) stats() CacheStats {
	var st CacheStats
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.order.Len()
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// FNV-1a over a string in place — no []byte conversion, no hash.Hash32
// — so hashing a probe key never allocates.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// fnvInt folds n's decimal digits into h, from a stack buffer.
func fnvInt(h uint32, n int) uint32 {
	var buf [20]byte
	return fnvString(h, string(strconv.AppendInt(buf[:0], int64(n), 10)))
}
