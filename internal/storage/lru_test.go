package storage

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"testing"

	"scads/internal/record"
	"scads/internal/sstable"
)

// cacheOps drives Cache and BlockCache through what they share. An
// entry belongs to a group (a namespace; a table path) and has a number
// within it (a key; a block index); version tags the stored value so a
// get can tell which put it sees. The zero value of either cache's
// payload — a cached negative lookup, an empty block — is version 0.
type cacheOps struct {
	put       func(group string, id, payloadBytes int, version uint64)
	get       func(group string, id int) (version uint64, ok bool)
	dropGroup func(group string)
	stats     func() CacheStats
}

var lruInstantiations = []struct {
	name string
	new  func(totalBytes int64, shards int) cacheOps
}{
	{"Cache", func(totalBytes int64, shards int) cacheOps {
		c := &Cache{lru: newLRU[recordKey, resolution](totalBytes, shards)}
		key := func(id int) []byte { return []byte(fmt.Sprintf("%04d", id)) }
		return cacheOps{
			put: func(ns string, id, n int, version uint64) {
				c.Put(ns, key(id), record.Record{Key: key(id), Value: make([]byte, n), Version: version}, version != 0)
			},
			get: func(ns string, id int) (uint64, bool) {
				rec, found, hit := c.Get(ns, key(id))
				if found != (rec.Version != 0) {
					panic("found flag does not match the stored record")
				}
				return rec.Version, hit
			},
			dropGroup: c.InvalidateNamespace,
			stats:     c.Stats,
		}
	}},
	{"BlockCache", func(totalBytes int64, shards int) cacheOps {
		c := NewBlockCache(totalBytes, shards)
		return cacheOps{
			put: func(path string, block, n int, version uint64) {
				c.Put(path, block, blockOfSize(n, version))
			},
			get: func(path string, block int) (uint64, bool) {
				b, ok := c.Get(path, block)
				if b.Len() == 0 {
					return 0, ok
				}
				return b.Record(0).Version, ok
			},
			dropGroup: c.DropTable,
			stats:     func() CacheStats { return CacheStats(c.Stats()) },
		}
	}},
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
		run  func(t *testing.T, newCache func(totalBytes int64, shards int) cacheOps)
	}{
		{"hit, miss and stats", func(t *testing.T, newCache func(int64, int) cacheOps) {
			c := newCache(1<<20, 4)
			if _, ok := c.get("a.sst", 0); ok {
				t.Fatal("hit on empty cache")
			}
			c.put("a.sst", 0, 512, 7)
			if v, ok := c.get("a.sst", 0); !ok || v != 7 {
				t.Fatalf("get = version %d, ok=%v", v, ok)
			}
			if _, ok := c.get("a.sst", 1); ok {
				t.Fatal("hit on an entry never put")
			}
			st := c.stats()
			if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if st.Bytes <= 512 {
				t.Fatalf("Bytes = %d, want > payload (key and overhead charged)", st.Bytes)
			}
		}},
		{"zero value is a hit", func(t *testing.T, newCache func(int64, int) cacheOps) {
			c := newCache(1<<20, 4)
			c.put("a.sst", 0, 0, 0)
			if v, ok := c.get("a.sst", 0); !ok || v != 0 {
				t.Fatalf("negative entry: version %d, ok=%v", v, ok)
			}
		}},
		{"evicts least recently used", func(t *testing.T, newCache func(int64, int) cacheOps) {
			// Single shard so eviction order is globally observable. Each
			// entry charges payload+key+overhead; the budget fits two of
			// the three.
			c := newCache(1200, 1)
			c.put("t.sst", 0, 300, 1)
			c.put("t.sst", 1, 300, 1)
			// Touch entry 0 so entry 1 is the LRU victim.
			if _, ok := c.get("t.sst", 0); !ok {
				t.Fatal("entry 0 missing before eviction")
			}
			c.put("t.sst", 2, 300, 1)
			if _, ok := c.get("t.sst", 1); ok {
				t.Fatal("LRU victim (entry 1) survived eviction")
			}
			if _, ok := c.get("t.sst", 0); !ok {
				t.Fatal("recently used entry 0 was evicted")
			}
			if _, ok := c.get("t.sst", 2); !ok {
				t.Fatal("newly inserted entry 2 missing")
			}
			if st := c.stats(); st.Evictions != 1 {
				t.Fatalf("Evictions = %d, want 1", st.Evictions)
			}
		}},
		{"never evicts a shard's sole entry", func(t *testing.T, newCache func(int64, int) cacheOps) {
			c := newCache(64, 1)
			c.put("t.sst", 0, 4096, 1)
			if _, ok := c.get("t.sst", 0); !ok {
				t.Fatal("oversized sole entry was rejected")
			}
		}},
		{"re-put replaces and charges the delta", func(t *testing.T, newCache func(int64, int) cacheOps) {
			c := newCache(1<<20, 1)
			c.put("t.sst", 0, 100, 1)
			before := c.stats().Bytes
			c.put("t.sst", 0, 200, 2)
			st := c.stats()
			if st.Entries != 1 {
				t.Fatalf("Entries = %d after re-put, want 1", st.Entries)
			}
			if st.Bytes != before+100 {
				t.Fatalf("Bytes = %d after re-put, want %d", st.Bytes, before+100)
			}
			if v, ok := c.get("t.sst", 0); !ok || v != 2 {
				t.Fatalf("re-put not visible: version %d, ok=%v", v, ok)
			}
		}},
		{"stays within its byte budget", func(t *testing.T, newCache func(int64, int) cacheOps) {
			c := newCache(4<<10, 4)
			for i := 0; i < 1000; i++ {
				c.put("ns", i, 64, 1)
			}
			st := c.stats()
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
		{"dropping a group leaves the others", func(t *testing.T, newCache func(int64, int) cacheOps) {
			// InvalidateNamespace / DropTable. "dead.sst2" extends the
			// dropped group's name: a prefix match must not take it.
			c := newCache(1<<20, 4)
			for i := 0; i < 8; i++ {
				c.put("dead.sst", i, 64, 1)
				c.put("dead.sst2", i, 64, 1)
				c.put("live.sst", i, 64, 1)
			}
			c.dropGroup("dead.sst")
			for i := 0; i < 8; i++ {
				if _, ok := c.get("dead.sst", i); ok {
					t.Fatalf("dead.sst entry %d survived the drop", i)
				}
				for _, g := range []string{"dead.sst2", "live.sst"} {
					if _, ok := c.get(g, i); !ok {
						t.Fatalf("%s entry %d dropped with an unrelated group", g, i)
					}
				}
			}
			if st := c.stats(); st.Entries != 16 {
				t.Fatalf("Entries = %d after the drop, want 16", st.Entries)
			}
		}},
		{"concurrent churn keeps the accounts", func(t *testing.T, newCache func(int64, int) cacheOps) {
			c := newCache(64<<10, 8)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					group := fmt.Sprintf("t%d.sst", g%4)
					for i := 0; i < 500; i++ {
						switch i % 3 {
						case 0:
							c.put(group, i%16, 256, 1)
						case 1:
							c.get(group, i%16)
						case 2:
							if i%100 == 0 {
								c.dropGroup(group)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			st := c.stats()
			if st.Bytes < 0 || st.Entries < 0 || (st.Entries == 0) != (st.Bytes == 0) {
				t.Fatalf("byte accounting adrift after concurrent churn: %+v", st)
			}
		}},
	}
	for _, inst := range lruInstantiations {
		for _, tc := range cases {
			t.Run(inst.name+"/"+tc.name, func(t *testing.T) { tc.run(t, inst.new) })
		}
	}
}

// The written-out FNV-1a is hash/fnv's, and a block index is hashed as
// its decimal digits.
func TestShardHashMatchesFNV(t *testing.T) {
	for _, k := range []blockKey{{"", 0}, {"n1/000000007.sst", 3}, {"/var/lib/scads/tbl.users/000000007.sst", 1234}, {"t.sst", -5}} {
		ref := fnv.New32a()
		ref.Write([]byte(k.path + strconv.Itoa(k.block)))
		if got, want := k.hash(), ref.Sum32(); got != want {
			t.Errorf("hash(%q, %d) = %#x, hash/fnv says %#x", k.path, k.block, got, want)
		}
	}
	// The record cache hashes its key's two parts in sequence, to the
	// shard their concatenation hashed to.
	ref := fnv.New32a()
	ref.Write([]byte("tbl.users\x00user-00001234"))
	if _, got := probe("tbl.users", []byte("user-00001234")); got != ref.Sum32() {
		t.Errorf("probe hash = %#x, hash/fnv says %#x", got, ref.Sum32())
	}
}

// A cache hit allocates nothing: the probe key is a struct built and
// hashed on the caller's stack, free at any key length (the record
// cache's was a concatenation once, which the compiler keeps on the
// stack only up to 32 bytes — short of every index key of the social
// schema), path length and block index (hashing the index through
// strconv.Itoa and hash.Hash32 cost one allocation from block 100 up).
func TestCacheHitAllocs(t *testing.T) {
	key := []byte("user-00001234")
	c := NewCache(1 << 20)
	for _, key := range [][]byte{key, bytes.Repeat([]byte("k"), 45)} {
		c.Put("idx.friendsWithUpcomingBirthdays", key, record.Record{Key: key, Value: []byte("v"), Version: 1}, true)
		if n := testing.AllocsPerRun(200, func() {
			if _, _, hit := c.Get("idx.friendsWithUpcomingBirthdays", key); !hit {
				t.Fatal("miss")
			}
			c.Invalidate("idx.friends", key)
		}); n != 0 {
			t.Errorf("Cache.Get hit and Invalidate of a %d-byte key: %v allocs, want 0", len(key), n)
		}
	}

	bc := NewBlockCache(1<<20, cacheShards)
	for _, path := range []string{"n1/000000007.sst", "/var/lib/scads/node-1/tbl.users/000000007.sst"} {
		for _, block := range []int{3, 1234} {
			bc.Put(path, block, blockOfSize(4096, 1))
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := bc.Get(path, block); !ok {
					t.Fatal("miss")
				}
			}); n != 0 {
				t.Errorf("BlockCache.Get(%q, %d) hit: %v allocs, want 0", path, block, n)
			}
		}
	}
}

// A block is charged what it holds: its Size, plus its path and the
// entry's bookkeeping.
func TestBlockCacheChargesSize(t *testing.T) {
	c := NewBlockCache(1<<20, 1)
	b := blockOfSize(4096, 1)
	c.Put("t.sst", 0, b)
	if got, want := c.Stats().Bytes, int64(len("t.sst")+b.Size()+blockEntryOverhead); got != want {
		t.Fatalf("a %d-byte block is charged %d bytes, want %d", b.Size(), got, want)
	}
}
