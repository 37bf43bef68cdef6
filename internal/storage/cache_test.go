package storage

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"scads/internal/record"
	"scads/internal/sstable"
)

func TestCacheHitAndInvalidateOnWrite(t *testing.T) {
	e, err := Open(Options{NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Put([]byte("alice"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// First read fills, second read hits.
	if v, ok, _ := ns.Get([]byte("alice")); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	before := e.cache.Stats()
	if v, ok, _ := ns.Get([]byte("alice")); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	after := e.cache.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("expected a cache hit: before=%+v after=%+v", before, after)
	}

	// A write must invalidate: the very next read sees the new value.
	if _, err := ns.Put([]byte("alice"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ns.Get([]byte("alice")); !ok || string(v) != "v2" {
		t.Fatalf("stale read after write: %q,%v", v, ok)
	}

	// Same for deletes.
	if _, err := ns.Delete([]byte("alice")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ns.Get([]byte("alice")); ok {
		t.Fatal("read served a deleted key from cache")
	}
}

func TestCacheNegativeLookupInvalidated(t *testing.T) {
	e, err := Open(Options{NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	// Miss, cached negatively, then hit negatively.
	if _, ok, _ := ns.Get([]byte("bob")); ok {
		t.Fatal("phantom key")
	}
	before := e.cache.Stats()
	if _, ok, _ := ns.Get([]byte("bob")); ok {
		t.Fatal("phantom key")
	}
	if after := e.cache.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("negative lookup not cached: before=%+v after=%+v", before, after)
	}
	// The insert must invalidate the negative entry.
	if _, err := ns.Put([]byte("bob"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ns.Get([]byte("bob")); !ok || string(v) != "v1" {
		t.Fatalf("insert hidden by cached negative entry: %q,%v", v, ok)
	}
}

func TestCacheDisabled(t *testing.T) {
	e, err := Open(Options{NodeID: 1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.cache != nil {
		t.Fatal("cache should be disabled")
	}
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ns.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get without cache = %q,%v", v, ok)
	}
}

func TestCacheNamespacesIsolated(t *testing.T) {
	c := NewCache(1 << 20)
	key := []byte("k")
	c.Put("a", key, record.Record{Key: key, Value: []byte("va")}, true)
	c.Put("b", key, record.Record{Key: key, Value: []byte("vb")}, true)
	c.Invalidate("a", key)
	if _, _, hit := c.Get("a", key); hit {
		t.Fatal("namespace a key survived invalidation")
	}
	if rec, _, hit := c.Get("b", key); !hit || string(rec.Value) != "vb" {
		t.Fatalf("namespace b entry lost collaterally: hit=%v rec=%q", hit, rec.Value)
	}
}

func TestApplyBatchLWWAndRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir)
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing newer version must survive a batch carrying an
	// older record for the same key.
	if err := ns.Apply(record.Record{Key: []byte("a"), Value: []byte("new"), Version: 100}); err != nil {
		t.Fatal(err)
	}
	batch := []record.Record{
		{Key: []byte("a"), Value: []byte("old"), Version: 50},
		{Key: []byte("b"), Value: []byte("b1"), Version: 60},
		{Key: []byte("c"), Value: []byte("c1"), Version: 70},
	}
	if err := ns.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ns.Get([]byte("a")); !ok || string(v) != "new" {
		t.Fatalf("LWW violated by batch: a=%q,%v", v, ok)
	}
	if v, ok, _ := ns.Get([]byte("b")); !ok || string(v) != "b1" {
		t.Fatalf("b=%q,%v", v, ok)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Batch-applied records must be recoverable like any other write.
	e2, err := Open(Options{Dir: dir, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ns2, err := e2.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"a": "new", "b": "b1", "c": "c1"} {
		if v, ok, _ := ns2.Get([]byte(key)); !ok || string(v) != want {
			t.Fatalf("after recovery %s=%q,%v want %q", key, v, ok, want)
		}
	}
}

func TestSyncWritesGroupCommit(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), NodeID: 1, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("w%d-%03d", w, i))
				if _, err := ns.Put(key, []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := []byte(fmt.Sprintf("w%d-%03d", w, i))
			if _, ok, _ := ns.Get(key); !ok {
				t.Fatalf("missing durable write %s", key)
			}
		}
	}
}

func TestCacheConcurrentReadWrite(t *testing.T) {
	e, err := Open(Options{NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ns.Get([]byte(fmt.Sprintf("k%02d", i%keys)))
				i++
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%keys))
		if _, err := ns.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		// Monotonicity through the cache: a read right after the
		// write must see it (the invalidation is in the write's
		// critical section).
		if v, ok, _ := ns.Get(key); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("iteration %d: read %q,%v after write", i, v, ok)
		}
	}
	close(stop)
	wg.Wait()
}

// A record-cache entry owns its bytes: a record decoded from a table
// block aliases the block, and caching it must not keep the block's
// array alive (nor see a later write to it).
func TestCacheEntryOwnsItsBytes(t *testing.T) {
	rec := record.Record{Key: []byte("user-00001234"), Value: []byte("a row of about eighty bytes"), Version: 7}
	data := rec.AppendBinary(nil)
	b, err := sstable.NewBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(1 << 20)
	c.Put("tbl.users", rec.Key, b.Record(0), true)
	got, found, hit := c.Get("tbl.users", rec.Key)
	if !hit || !found || got.Version != 7 || string(got.Key) != string(rec.Key) || string(got.Value) != string(rec.Value) {
		t.Fatalf("Get = %+v, found=%v hit=%v", got, found, hit)
	}
	for _, s := range [][]byte{got.Key, got.Value} {
		if p := unsafe.Pointer(unsafe.SliceData(s)); uintptr(p) >= uintptr(unsafe.Pointer(&data[0])) && uintptr(p) < uintptr(unsafe.Pointer(&data[0]))+uintptr(len(data)) {
			t.Fatalf("cached %q shares the block's array", s)
		}
	}
	clear(data)
	if got, _, _ := c.Get("tbl.users", rec.Key); string(got.Value) != string(rec.Value) {
		t.Fatalf("a write to the block changed the cached value to %q", got.Value)
	}
}
