package storage

import "scads/internal/sstable"

// BlockCache is a sharded LRU of SSTable blocks, shared across every
// namespace of an engine and keyed (table path, block index). It caches
// a block as its bytes, every frame's checksum already checked, plus one
// offset per record (sstable.Block), so a hit skips the pread and the
// CRC pass — the two costs that dominate an uncached point read — and a
// block is charged what it holds, its Size.
//
// Invalidation contract: SSTables are immutable, so cached blocks can
// never go stale; entries only leave by LRU eviction or by DropTable
// when a compaction unlinks the table file. The exact-key read cache
// (Cache) sits in front and has its own write-invalidation story; this
// layer never needs one.
//
// BlockCache implements sstable.BlockCache.
type BlockCache struct {
	lru *lru[blockKey, sstable.Block]
}

type blockKey struct {
	path  string
	block int
}

func (k blockKey) hash() uint32 { return fnvInt(fnvString(fnvOffset32, k.path), k.block) }

// blockEntryOverhead approximates per-entry bookkeeping (map slot,
// list element, entry struct) charged on top of the block's Size.
const blockEntryOverhead = 128

// NewBlockCache returns a cache holding at most totalBytes of blocks
// across shards (shard count rounded up to a power of two, minimum 1).
func NewBlockCache(totalBytes int64, shards int) *BlockCache {
	return &BlockCache{lru: newLRU[blockKey, sstable.Block](totalBytes, shards)}
}

// Get returns the cached block, if present.
func (c *BlockCache) Get(path string, block int) (sstable.Block, bool) {
	k := blockKey{path, block}
	return c.lru.get(k.hash(), k)
}

// Put stores a block, charged its Size. The block is shared with every
// future Get.
func (c *BlockCache) Put(path string, block int, b sstable.Block) {
	k := blockKey{path, block}
	c.lru.put(k.hash(), k, b, int64(len(path)+b.Size())+blockEntryOverhead)
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
