package storage

import (
	"container/list"
	"strconv"
	"sync"

	"scads/internal/sstable"
)

// cacheShards stripes the engine's block cache (a power of two).
const cacheShards = 16

// BlockCache is the engine's read cache: a sharded, byte-bounded LRU
// of SSTable blocks, shared across every namespace of an engine and
// keyed (table path, block index). It caches a block as its bytes,
// every frame's checksum already checked, plus one offset per record
// (sstable.Block), so a hit skips the pread and the CRC pass — the two
// costs that dominate an uncached point read — and a block is charged
// what it holds, its Size.
//
// SSTables are immutable, so a cached block can never go stale and no
// write invalidates anything: entries leave only by LRU eviction or by
// DropTable when a compaction unlinks the table file. Reads above the
// tables (memtable, flushing memtable) are resolved by version before a
// cached block is consulted.
//
// Entries are striped across shards by the key's hash, so concurrent
// readers of different blocks rarely meet on one lock. Each shard
// evicts from its cold end once it holds more than its share of the
// byte budget, but never its last entry: one oversized block is cached
// rather than thrashed.
//
// BlockCache implements sstable.BlockCache.
type BlockCache struct {
	shards []blockShard
}

type blockShard struct {
	mu       sync.Mutex
	order    *list.List // of *blockEntry; front = most recently used
	entries  map[blockKey]*list.Element
	bytes    int64
	maxBytes int64

	hits, misses, evictions int64
}

type blockEntry struct {
	key  blockKey
	b    sstable.Block
	size int64
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
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &BlockCache{shards: make([]blockShard, n)}
	for i := range c.shards {
		c.shards[i] = blockShard{
			order:    list.New(),
			entries:  make(map[blockKey]*list.Element),
			maxBytes: max(totalBytes/int64(n), 1),
		}
	}
	return c
}

func (c *BlockCache) shard(k blockKey) *blockShard {
	return &c.shards[k.hash()&uint32(len(c.shards)-1)]
}

// Get returns the cached block, if present, and marks it most recently
// used.
func (c *BlockCache) Get(path string, block int) (b sstable.Block, ok bool) {
	k := blockKey{path, block}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.order.MoveToFront(el)
		b = el.Value.(*blockEntry).b
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return b, ok
}

// Put stores a block, charged its Size, replacing any earlier one. The
// block is shared with every future Get.
func (c *BlockCache) Put(path string, block int, b sstable.Block) {
	k := blockKey{path, block}
	e := &blockEntry{key: k, b: b, size: int64(len(path)+b.Size()) + blockEntryOverhead}
	s := c.shard(k)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.bytes -= el.Value.(*blockEntry).size
		el.Value = e
		s.order.MoveToFront(el)
	} else {
		s.entries[k] = s.order.PushFront(e)
	}
	s.bytes += e.size
	for s.bytes > s.maxBytes && s.order.Len() > 1 {
		s.drop(s.order.Back())
		s.evictions++
	}
	s.mu.Unlock()
}

// drop unlinks one entry. Caller holds s.mu.
func (s *blockShard) drop(el *list.Element) {
	e := s.order.Remove(el).(*blockEntry)
	delete(s.entries, e.key)
	s.bytes -= e.size
}

// DropTable evicts every cached block of the named table. Called when
// a compaction unlinks the table file; entries for the dead path would
// otherwise linger until LRU pressure finds them.
func (c *BlockCache) DropTable(path string) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.entries {
			if k.path == path {
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

// BlockCacheStats summarises block-cache effectiveness.
type BlockCacheStats CacheStats

// Stats returns a snapshot across all shards.
func (c *BlockCache) Stats() BlockCacheStats {
	var st BlockCacheStats
	for i := range c.shards {
		s := &c.shards[i]
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
// — so hashing a key never allocates.
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
