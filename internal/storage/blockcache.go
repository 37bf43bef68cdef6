package storage

import "scads/internal/record"

// BlockCache is a sharded LRU of decoded SSTable blocks, shared across
// every namespace of an engine and keyed (table path, block index). It
// caches the *decoded* records rather than raw bytes, so a hit skips
// both the pread and the per-record CRC check and decode — the two
// costs that dominate an uncached point read.
//
// Invalidation contract: SSTables are immutable, so cached blocks can
// never go stale; entries only leave by LRU eviction or by DropTable
// when a compaction unlinks the table file. The exact-key read cache
// (Cache) sits in front and has its own write-invalidation story; this
// layer never needs one.
//
// BlockCache implements sstable.BlockCache.
type BlockCache struct {
	lru *lru[blockKey, []record.Record]
}

type blockKey struct {
	path  string
	block int
}

func (k blockKey) hash() uint32 { return fnvInt(fnvString(fnvOffset32, k.path), k.block) }

// blockEntryOverhead approximates per-entry bookkeeping (map slot,
// list element, entry struct) charged on top of the caller-reported
// block footprint.
const blockEntryOverhead = 128

// NewBlockCache returns a cache holding at most totalBytes of decoded
// blocks across shards (shard count rounded up to a power of two,
// minimum 1).
func NewBlockCache(totalBytes int64, shards int) *BlockCache {
	return &BlockCache{lru: newLRU[blockKey, []record.Record](totalBytes, shards)}
}

// Get returns the cached decoded block, if present.
func (c *BlockCache) Get(path string, block int) ([]record.Record, bool) {
	k := blockKey{path, block}
	return c.lru.get(k.hash(), k)
}

// Put stores a decoded block. The slice and its records are shared
// with every future Get and must be treated as immutable.
func (c *BlockCache) Put(path string, block int, recs []record.Record, sizeBytes int) {
	k := blockKey{path, block}
	c.lru.put(k.hash(), k, recs, int64(len(path)+sizeBytes)+blockEntryOverhead)
}

// DropTable evicts every cached block of the named table. Called when
// a compaction unlinks the table file; entries for the dead path would
// otherwise linger until LRU pressure finds them.
func (c *BlockCache) DropTable(path string) {
	c.lru.removeIf(func(k blockKey) bool { return k.path == path })
}

// BlockCacheStats summarises block-cache effectiveness.
type BlockCacheStats CacheStats

// Stats returns a snapshot across all shards.
func (c *BlockCache) Stats() BlockCacheStats { return BlockCacheStats(c.lru.stats()) }
