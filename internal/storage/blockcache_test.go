package storage

import (
	"fmt"
	"sync"
	"testing"

	"scads/internal/record"
	"scads/internal/sstable"
)

// blockCacheOps drives a BlockCache by version: version tags the
// one-record block stored under (table, block) so a get can tell which
// put it sees, and version 0 is an empty block.
type blockCacheOps struct{ *BlockCache }

func newBlockCacheOps(totalBytes int64, shards int) blockCacheOps {
	return blockCacheOps{NewBlockCache(totalBytes, shards)}
}

func (c blockCacheOps) put(table uint64, block, size int, version uint64) {
	c.Put(table, block, blockOfSize(size, version))
}

func (c blockCacheOps) get(table uint64, block int) (version uint64, ok bool) {
	b, ok := c.Get(table, block)
	if b.Len() == 0 {
		return 0, ok
	}
	return b.Record(0).Version, ok
}

// read is a table reader's path to a block: a hit, or a miss read in
// and stored when the cache admits it.
func (c blockCacheOps) read(table uint64, block, size int) (hit, admitted bool) {
	if _, ok := c.Get(table, block); ok {
		return true, true
	}
	if !c.Admit(table, block, size) {
		return false, false
	}
	c.put(table, block, size, 1)
	return false, true
}

// checkGhosts fails unless every shard's ghost ring holds no more keys
// than the shard holds entries, and its set and ring agree.
func checkGhosts(t *testing.T, c *BlockCache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n, entries, set := s.nGhost, s.order.Len(), len(s.ghost)
		s.mu.Unlock()
		if n > entries || set != n {
			t.Fatalf("shard %d: ghost ring holds %d keys (set %d) over %d entries", i, n, set, entries)
		}
	}
}

// blockOfSize returns a block of one record tagged version whose Size
// is n bytes, or an empty block for version 0.
func blockOfSize(n int, version uint64) sstable.Block {
	if version == 0 {
		return sstable.Block{}
	}
	rec := record.Record{Key: []byte("k"), Version: version}
	rec.Value = make([]byte, n-4-rec.EncodedSize())
	for rec.EncodedSize()+4 > n { // a longer value's length takes more bytes
		rec.Value = rec.Value[1:]
	}
	b, err := sstable.NewBlock(rec.AppendBinary(nil))
	if err != nil || b.Size() != n {
		panic(fmt.Sprintf("block of %d bytes: Size %d, %v", n, b.Size(), err))
	}
	return b
}

func TestLRU(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"hit, miss and stats", func(t *testing.T) {
			c := newBlockCacheOps(1<<20, 4)
			if _, ok := c.get(1, 0); ok {
				t.Fatal("hit on empty cache")
			}
			c.put(1, 0, 512, 7)
			if v, ok := c.get(1, 0); !ok || v != 7 {
				t.Fatalf("get = version %d, ok=%v", v, ok)
			}
			if _, ok := c.get(1, 1); ok {
				t.Fatal("hit on an entry never put")
			}
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if st.Bytes <= 512 {
				t.Fatalf("Bytes = %d, want > payload (entry overhead charged)", st.Bytes)
			}
		}},
		{"zero value is a hit", func(t *testing.T) {
			c := newBlockCacheOps(1<<20, 4)
			c.put(1, 0, 0, 0)
			if v, ok := c.get(1, 0); !ok || v != 0 {
				t.Fatalf("empty block: version %d, ok=%v", v, ok)
			}
		}},
		{"evicts least recently used", func(t *testing.T) {
			// Single shard so eviction order is globally observable. Each
			// entry charges payload+key+overhead; the budget fits two of
			// the three.
			c := newBlockCacheOps(1200, 1)
			c.put(1, 0, 300, 1)
			c.put(1, 1, 300, 1)
			// Touch entry 0 so entry 1 is the LRU victim.
			if _, ok := c.get(1, 0); !ok {
				t.Fatal("entry 0 missing before eviction")
			}
			c.put(1, 2, 300, 1)
			if _, ok := c.get(1, 1); ok {
				t.Fatal("LRU victim (entry 1) survived eviction")
			}
			if _, ok := c.get(1, 0); !ok {
				t.Fatal("recently used entry 0 was evicted")
			}
			if _, ok := c.get(1, 2); !ok {
				t.Fatal("newly inserted entry 2 missing")
			}
			if st := c.Stats(); st.Evictions != 1 {
				t.Fatalf("Evictions = %d, want 1", st.Evictions)
			}
		}},
		{"never evicts a shard's sole entry", func(t *testing.T) {
			c := newBlockCacheOps(64, 1)
			c.put(1, 0, 4096, 1)
			if _, ok := c.get(1, 0); !ok {
				t.Fatal("oversized sole entry was rejected")
			}
		}},
		{"re-put replaces and charges the delta", func(t *testing.T) {
			c := newBlockCacheOps(1<<20, 1)
			c.put(1, 0, 100, 1)
			before := c.Stats().Bytes
			c.put(1, 0, 200, 2)
			st := c.Stats()
			if st.Entries != 1 {
				t.Fatalf("Entries = %d after re-put, want 1", st.Entries)
			}
			if st.Bytes != before+100 {
				t.Fatalf("Bytes = %d after re-put, want %d", st.Bytes, before+100)
			}
			if v, ok := c.get(1, 0); !ok || v != 2 {
				t.Fatalf("re-put not visible: version %d, ok=%v", v, ok)
			}
		}},
		{"stays within its byte budget", func(t *testing.T) {
			c := newBlockCacheOps(4<<10, 4)
			for i := 0; i < 1000; i++ {
				c.put(1, i, 64, 1)
			}
			st := c.Stats()
			if st.Bytes > 4<<10 {
				t.Fatalf("cache bytes %d exceed budget %d", st.Bytes, 4<<10)
			}
			if st.Evictions == 0 {
				t.Fatal("expected evictions under pressure")
			}
			if st.Entries == 0 {
				t.Fatal("cache emptied itself")
			}
		}},
		{"dropping a group leaves the others", func(t *testing.T) {
			c := newBlockCacheOps(1<<20, 4)
			for i := 0; i < 8; i++ {
				c.put(1, i, 64, 1)
				c.put(2, i, 64, 1)
				c.put(3, i, 64, 1)
			}
			c.DropTable(1)
			for i := 0; i < 8; i++ {
				if _, ok := c.get(1, i); ok {
					t.Fatalf("table 1 entry %d survived the drop", i)
				}
				for _, g := range []uint64{2, 3} {
					if _, ok := c.get(g, i); !ok {
						t.Fatalf("table %d entry %d dropped with an unrelated group", g, i)
					}
				}
			}
			if st := c.Stats(); st.Entries != 16 {
				t.Fatalf("Entries = %d after the drop, want 16", st.Entries)
			}
		}},
		{"concurrent churn keeps the accounts", func(t *testing.T) {
			c := newBlockCacheOps(64<<10, 8)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					group := uint64(g%4 + 1)
					for i := 0; i < 500; i++ {
						switch i % 3 {
						case 0:
							c.put(group, i%16, 256, 1)
						case 1:
							c.get(group, i%16)
						case 2:
							if i%100 == 0 {
								c.DropTable(group)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			st := c.Stats()
			if st.Bytes < 0 || st.Entries < 0 || (st.Entries == 0) != (st.Bytes == 0) {
				t.Fatalf("byte accounting adrift after concurrent churn: %+v", st)
			}
		}},
	}
	t.Run("BlockCache", func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, tc.run)
		}
	})
}

func TestAdmission(t *testing.T) {
	// One shard of 1200 bytes holds two 300-byte blocks (each charged
	// its entry's overhead besides) but not three.
	const budget, size = 1200, 300
	full := func() blockCacheOps {
		c := newBlockCacheOps(budget, 1)
		for b := 0; b < 2; b++ {
			if _, admitted := c.read(1, b, size); !admitted {
				t.Fatalf("a shard with room refused block %d", b)
			}
		}
		return c
	}
	t.Run("a shard with room admits a first miss", func(t *testing.T) {
		c := full()
		if st := c.Stats(); st.Entries != 2 || st.Refused != 0 || st.Misses != 2 {
			t.Fatalf("stats = %+v, want 2 entries, 2 misses, none refused", st)
		}
	})
	t.Run("a full shard refuses a first miss and admits the second", func(t *testing.T) {
		c := full()
		if _, admitted := c.read(1, 2, size); admitted {
			t.Fatal("a full shard admitted a first miss")
		}
		if _, ok := c.get(1, 2); ok {
			t.Fatal("a refused block is cached")
		}
		if hit, admitted := c.read(1, 2, size); hit || !admitted {
			t.Fatalf("second miss: hit %v, admitted %v; want an admitted miss", hit, admitted)
		}
		if _, ok := c.get(1, 2); !ok {
			t.Fatal("the block admitted on its second miss is not cached")
		}
		if st := c.Stats(); st.Refused != 1 || st.Evictions != 1 || st.Entries != 2 {
			t.Fatalf("stats = %+v, want 1 refused, 1 eviction, 2 entries", st)
		}
	})
	t.Run("the ghost ring holds no more keys than the shard has entries", func(t *testing.T) {
		c := full()
		for b := 10; b < 20; b++ {
			if _, admitted := c.read(1, b, size); admitted {
				t.Fatalf("block %d admitted on its first miss", b)
			}
			checkGhosts(t, c.BlockCache)
		}
		if _, admitted := c.read(1, 10, size); admitted {
			t.Fatal("block 10 admitted after the ring forgot it")
		}
		if _, admitted := c.read(1, 19, size); !admitted {
			t.Fatal("block 19, the last refused, not admitted on its second miss")
		}
		if st := c.Stats(); st.Refused != 11 {
			t.Fatalf("Refused = %d, want 11", st.Refused)
		}
	})
	t.Run("DropTable empties the cache and the ring", func(t *testing.T) {
		c := full()
		c.read(1, 2, size)
		c.DropTable(1)
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("stats after DropTable = %+v, want empty", st)
		}
		checkGhosts(t, c.BlockCache)
		if _, admitted := c.read(2, 0, size); !admitted {
			t.Fatal("an emptied shard refused a miss")
		}
	})
	t.Run("an oversized block is admitted to an empty shard", func(t *testing.T) {
		c := newBlockCacheOps(64, 1)
		if _, admitted := c.read(1, 0, 4096); !admitted {
			t.Fatal("an empty shard refused an oversized block")
		}
	})
}

// TestBlockAdmissionHammer: readers admit, get, put and drop tables
// across shards at once; every shard's accounts and ghost ring hold.
// Run it under -race.
func TestBlockAdmissionHammer(t *testing.T) {
	c := newBlockCacheOps(16<<10, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				table := uint64((g+i)%4 + 1)
				if i%250 == 249 {
					c.DropTable(table)
					continue
				}
				c.read(table, (i*7+g)%64, 256+i%512)
			}
		}(g)
	}
	wg.Wait()
	checkGhosts(t, c.BlockCache)
	for i := range c.shards {
		s := &c.shards[i]
		var sum int64
		for el := s.order.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*blockEntry).size
		}
		if sum != s.bytes || len(s.entries) != s.order.Len() {
			t.Fatalf("shard %d: %d entries charged %d bytes, accounts say %d map entries and %d bytes", i, s.order.Len(), sum, len(s.entries), s.bytes)
		}
	}
	if st := c.Stats(); st.Refused == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v: the hammer never filled a shard", st)
	}
}

// The shard hash spreads keys over every shard: the blocks of one
// table, and the first block of consecutive tables, as a compaction's
// outputs are numbered.
func TestShardHashSpreadsKeys(t *testing.T) {
	c := NewBlockCache(1<<20, cacheShards)
	for _, keys := range []func(i int) blockKey{
		func(i int) blockKey { return blockKey{7, i} },
		func(i int) blockKey { return blockKey{uint64(i + 1), 0} },
	} {
		hit := make(map[*blockShard]bool)
		for i := 0; i < 8*cacheShards; i++ {
			hit[c.shard(keys(i))] = true
		}
		if len(hit) != cacheShards {
			t.Errorf("%d keys reach %d of %d shards", 8*cacheShards, len(hit), cacheShards)
		}
	}
}

// A cache hit allocates nothing: the key is a struct of two integers,
// built and hashed on the caller's stack.
func TestCacheHitAllocs(t *testing.T) {
	bc := NewBlockCache(1<<20, cacheShards)
	for _, table := range []uint64{7, 1 << 40} {
		for _, block := range []int{3, 1234} {
			bc.Put(table, block, blockOfSize(4096, 1))
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := bc.Get(table, block); !ok {
					t.Fatal("miss")
				}
			}); n != 0 {
				t.Errorf("BlockCache.Get(%d, %d) hit: %v allocs, want 0", table, block, n)
			}
		}
	}
}

// A block is charged what it holds: its Size, plus the entry's
// bookkeeping.
func TestBlockCacheChargesSize(t *testing.T) {
	c := NewBlockCache(1<<20, 1)
	b := blockOfSize(4096, 1)
	c.Put(1, 0, b)
	if got, want := c.Stats().Bytes, int64(b.Size()+blockEntryOverhead); got != want {
		t.Fatalf("a %d-byte block is charged %d bytes, want %d", b.Size(), got, want)
	}
}
