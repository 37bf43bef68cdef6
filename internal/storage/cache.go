package storage

import (
	"unsafe"

	"scads/internal/record"
)

// Cache is a sharded, invalidation-aware read cache sitting in front
// of the LSM stack. Entries are keyed (namespace, key) in one lru; the
// engine invalidates a key whenever a write for it lands (under the
// namespace write lock, so a racing fill can never resurrect a stale
// value — fills happen under the read lock, which excludes the writer
// holding the invalidation).
//
// Both positive and negative lookups are cached: absent keys are the
// common case for social workloads (checking friendship pairs), and a
// negative entry is invalidated by the insert that makes it stale just
// like a positive one.
type Cache struct {
	lru *lru[recordKey, resolution]
}

type recordKey struct{ namespace, key string }

// resolution is what a point read of one key found.
type resolution struct {
	rec   record.Record
	found bool
}

// entryOverhead approximates per-entry bookkeeping (map slot, list
// element, struct) charged against the byte budget in addition to key
// and value payloads.
const entryOverhead = 96

// NewCache returns a cache holding at most totalBytes.
func NewCache(totalBytes int64) *Cache {
	return &Cache{lru: newLRU[recordKey, resolution](totalBytes, cacheShards)}
}

// probe returns (namespace, key)'s place in the LRU and its shard hash
// (of the two parts in sequence) without copying either: the result
// aliases key, so it is good for a lookup and must be cloned to be kept.
func probe(namespace string, key []byte) (recordKey, uint32) {
	k := recordKey{namespace, unsafe.String(unsafe.SliceData(key), len(key))}
	return k, fnvString(fnvString(fnvString(fnvOffset32, namespace), "\x00"), k.key)
}

// Get returns the cached resolution for (namespace, key): the record,
// whether the store holds the key (found), and whether the cache had
// an answer at all (hit). A hit with found=false is a cached negative
// lookup.
func (c *Cache) Get(namespace string, key []byte) (rec record.Record, found, hit bool) {
	k, h := probe(namespace, key)
	r, hit := c.lru.get(h, k)
	return r.rec, r.found, hit
}

// Put stores the resolution of (namespace, key): rec is key's record
// when found. The entry owns its bytes: the key and the record's value
// are copied into one allocation, which the record's key shares, so an
// entry never pins the table block a record was decoded from. Callers
// must treat cached records as immutable.
func (c *Cache) Put(namespace string, key []byte, rec record.Record, found bool) {
	k, h := probe(namespace, key)
	buf := make([]byte, len(key)+len(rec.Value))
	copy(buf[copy(buf, key):], rec.Value)
	k.key = unsafe.String(unsafe.SliceData(buf), len(key))
	if rec.Key != nil {
		rec.Key = buf[:len(key):len(key)]
	}
	if rec.Value != nil {
		rec.Value = buf[len(key):]
	}
	c.lru.put(h, k, resolution{rec, found}, int64(len(namespace)+len(key)+len(rec.Value))+entryOverhead)
}

// Invalidate drops any cached resolution for (namespace, key). Called
// under the namespace write lock by every mutation path.
func (c *Cache) Invalidate(namespace string, key []byte) {
	k, h := probe(namespace, key)
	c.lru.remove(h, k)
}

// InvalidateNamespace drops every cached resolution for the
// namespace. Range truncation (migration teardown) cannot enumerate
// the affected keys cheaply, so it sheds the whole namespace; the
// cache refills on the next reads.
func (c *Cache) InvalidateNamespace(namespace string) {
	c.lru.removeIf(func(k recordKey) bool { return k.namespace == namespace })
}

// Stats returns a snapshot across all shards.
func (c *Cache) Stats() CacheStats { return c.lru.stats() }
