package storage

import (
	"container/list"
	"sync"

	"scads/internal/sstable"
)

// cacheShards stripes the engine's block cache (a power of two).
const cacheShards = 16

// BlockCache is the engine's read cache: a sharded, byte-bounded LRU
// of SSTable blocks, shared across every namespace of an engine and
// keyed (table number, block index): the number sstable.Open gave the
// table, so finding a block hashes two integers, not a path. It caches
// a block as its bytes, every frame's checksum already checked, plus
// one offset per record (sstable.Block), so a hit skips the pread and
// the CRC pass — the two costs that dominate an uncached point read —
// and a block is charged what it holds, its Size.
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
// A shard admits every block it has room for. Once full, it admits a
// block only on its second miss (Admit), and only while the shard's
// ghost ring, a FIFO of the blocks it refused that holds no more keys
// than the shard holds entries, still remembers the first — the ghost
// queue of 2Q (Johnson & Shasha, VLDB '94). A block read once and
// never again, the bulk of a working set larger than the cache, then
// costs no allocation that outlives its read and evicts no block.
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

	// ghost holds the hashes of refused blocks: a set, and the ring
	// that ages them out, oldest at ring[head]. A hash shared by two
	// blocks at most admits one early.
	ghost        map[uint32]struct{}
	ring         []uint32
	head, nGhost int

	hits, misses, evictions, refused int64
}

type blockEntry struct {
	key  blockKey
	b    sstable.Block
	size int64
}

type blockKey struct {
	table uint64
	block int
}

// hash mixes the key's two numbers with MurmurHash3's 64-bit
// finalizer, so the blocks of one table, and the tables, spread over
// every shard.
func (k blockKey) hash() uint32 {
	h := k.table*0x9e3779b97f4a7c15 ^ uint64(k.block)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

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
			ghost:    make(map[uint32]struct{}),
		}
	}
	return c
}

func (c *BlockCache) shard(k blockKey) *blockShard {
	return c.shardOf(k.hash())
}

func (c *BlockCache) shardOf(h uint32) *blockShard {
	return &c.shards[h&uint32(len(c.shards)-1)]
}

// Get returns the cached block, if present, and marks it most recently
// used.
func (c *BlockCache) Get(table uint64, block int) (b sstable.Block, ok bool) {
	k := blockKey{table, block}
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

// Admit reports whether a block of size bytes that Get just missed
// should be kept: always while its shard has room for it, and once the
// shard is full only if the shard's ghost ring remembers refusing it
// before. A refused block is remembered and counted.
func (c *BlockCache) Admit(table uint64, block, size int) bool {
	h := blockKey{table, block}.hash()
	s := c.shardOf(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.order.Len() == 0 || s.bytes+int64(size)+blockEntryOverhead <= s.maxBytes {
		return true
	}
	if _, ok := s.ghost[h]; ok {
		return true
	}
	s.refused++
	s.remember(h)
	return false
}

// Put stores a block, charged its Size, replacing any earlier one. The
// block is shared with every future Get.
func (c *BlockCache) Put(table uint64, block int, b sstable.Block) {
	k := blockKey{table, block}
	e := &blockEntry{key: k, b: b, size: int64(b.Size()) + blockEntryOverhead}
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
	s.forget()
}

// remember adds h to the ghost ring. Caller holds s.mu.
func (s *blockShard) remember(h uint32) {
	if s.nGhost == len(s.ring) {
		ring := make([]uint32, max(2*len(s.ring), 8))
		n := copy(ring, s.ring[s.head:])
		copy(ring[n:], s.ring[:s.head])
		s.ring, s.head = ring, 0
	}
	s.ring[(s.head+s.nGhost)%len(s.ring)] = h
	s.nGhost++
	s.ghost[h] = struct{}{}
	s.forget()
}

// forget ages the ghost ring's oldest keys out until it holds no more
// than the shard's entries. Caller holds s.mu.
func (s *blockShard) forget() {
	for s.nGhost > s.order.Len() {
		delete(s.ghost, s.ring[s.head])
		s.head = (s.head + 1) % len(s.ring)
		s.nGhost--
	}
}

// DropTable evicts every cached block of the numbered table. Called
// when a compaction unlinks the table file; entries for the dead table
// would otherwise linger until LRU pressure finds them.
func (c *BlockCache) DropTable(table uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.entries {
			if k.table == table {
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
	Refused   int64 // misses the cache declined to keep (see BlockCache.Admit)
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
		st.Refused += s.refused
		st.Entries += s.order.Len()
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
