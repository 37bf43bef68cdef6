package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

// countingCache is a minimal BlockCache for exercising the cached read
// path: an unbounded map plus hit/put/drop counters. One made to refuse
// admits nothing.
type countingCache struct {
	mu      sync.Mutex
	blocks  map[blockID]Block
	refuse  bool
	hits    int
	refused int
	puts    int
	dropped []uint64
}

// blockID names a block in a countingCache.
type blockID struct {
	table uint64
	block int
}

func newCountingCache() *countingCache {
	return &countingCache{blocks: map[blockID]Block{}}
}

func (c *countingCache) Get(table uint64, block int) (Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blocks[blockID{table, block}]
	if ok {
		c.hits++
	}
	return b, ok
}

func (c *countingCache) Admit(table uint64, block, size int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refuse {
		c.refused++
	}
	return !c.refuse
}

func (c *countingCache) Put(table uint64, block int, b Block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.blocks[blockID{table, block}] = b
}

func (c *countingCache) DropTable(table uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropped = append(c.dropped, table)
	for k := range c.blocks {
		if k.table == table {
			delete(c.blocks, k)
		}
	}
}

// missCache holds nothing: every Get misses, and Admit answers admit.
type missCache struct{ admit bool }

func (c missCache) Get(uint64, int) (Block, bool) { return Block{}, false }
func (c missCache) Admit(uint64, int, int) bool   { return c.admit }
func (c missCache) Put(uint64, int, Block)        {}
func (c missCache) DropTable(uint64)              {}

func TestBlockCacheServesGets(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(2000))
	defer r.Close()
	c := newCountingCache()
	r.SetBlockCache(c)

	key := []byte("key-001234")
	for i := 0; i < 3; i++ {
		got, ok, err := r.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get #%d: ok=%v err=%v", i, ok, err)
		}
		if string(got.Value) != "value-1234" {
			t.Fatalf("Get #%d = %q", i, got.Value)
		}
	}
	if c.puts != 1 {
		t.Fatalf("puts = %d, want 1 (one block filled once)", c.puts)
	}
	if c.hits != 2 {
		t.Fatalf("hits = %d, want 2 (second and third Get)", c.hits)
	}

	// Scans hit the same cached blocks.
	before := c.puts
	if err := r.Scan([]byte("key-001234"), []byte("key-001236"), func(record.Record) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if c.puts != before && c.hits < 3 {
		t.Fatalf("scan neither hit nor reused the cache: puts=%d hits=%d", c.puts, c.hits)
	}
}

func TestBlockCacheDroppedOnRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	r := buildTable(t, path, seqRecords(100))
	c := newCountingCache()
	r.SetBlockCache(c)
	if _, ok, err := r.Get([]byte("key-000050")); !ok || err != nil {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if err := r.Remove(); err != nil {
		t.Fatal(err)
	}
	if len(c.dropped) != 1 || c.dropped[0] != r.id {
		t.Fatalf("DropTable calls = %v, want [%d]", c.dropped, r.id)
	}
	if len(c.blocks) != 0 {
		t.Fatalf("%d blocks still cached after DropTable", len(c.blocks))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("table file still present after Remove: %v", err)
	}
}

// A retained reader keeps serving reads after Remove; the unlink and
// cache drop happen only when the pin is released.
func TestReaderPinsFileAcrossRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	r := buildTable(t, path, seqRecords(500))
	c := newCountingCache()
	r.SetBlockCache(c)

	r.Retain()
	if err := r.Remove(); err != nil {
		t.Fatal(err)
	}
	// Still readable through the pin: the fd is open and, on POSIX, the
	// unlink is deferred to the final Release anyway.
	got, ok, err := r.Get([]byte("key-000123"))
	if err != nil || !ok || string(got.Value) != "value-123" {
		t.Fatalf("Get after Remove under pin: %+v ok=%v err=%v", got, ok, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file unlinked while pinned: %v", err)
	}
	if len(c.dropped) != 0 {
		t.Fatalf("cache dropped while pinned: %v", c.dropped)
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file still present after final release: %v", err)
	}
	if len(c.dropped) != 1 {
		t.Fatalf("DropTable calls after final release = %v", c.dropped)
	}
}

func TestMergeCancel(t *testing.T) {
	dir := t.TempDir()
	a := buildTable(t, filepath.Join(dir, "a.sst"), seqRecords(1000))
	defer a.Close()
	out := filepath.Join(dir, "m.sst")
	cancel := make(chan struct{})
	close(cancel)
	_, err := Merge(out, MergeOptions{Cancel: cancel}, whole(a))
	if !errors.Is(err, ErrMergeCanceled) {
		t.Fatalf("Merge err = %v, want ErrMergeCanceled", err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("canceled merge left output behind: %v", names)
	}
}

// The rate limiter must pace the merge to roughly inputBytes/rate of
// (virtual) time.
func TestMergeRateLimitPacing(t *testing.T) {
	dir := t.TempDir()
	recs := make([]record.Record, 200)
	total := 0
	for i := range recs {
		recs[i] = record.Record{
			Key:     []byte(fmt.Sprintf("key-%06d", i)),
			Value:   bytes.Repeat([]byte("x"), 100),
			Version: uint64(i + 1),
		}
		total += recs[i].EncodedSize()
	}
	src := buildTable(t, filepath.Join(dir, "src.sst"), recs)
	defer src.Close()

	vc := clock.NewVirtual(time.Unix(0, 0))
	const rate = 64 << 10 // bytes per virtual second
	done := make(chan error, 1)
	var merged *Reader
	go func() {
		var err error
		merged, err = Merge(filepath.Join(dir, "m.sst"), MergeOptions{
			RateLimitBytesPerSec: rate,
			Clock:                vc,
		}, whole(src))
		done <- err
	}()

	// Drive the virtual clock in millisecond steps while the merge
	// sleeps.
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			defer merged.Close()
			elapsed := vc.Since(time.Unix(0, 0))
			want := time.Duration(float64(total) / rate * float64(time.Second))
			if elapsed < want/2 {
				t.Fatalf("merge of %d bytes at %d B/s took %v virtual time, want >= %v",
					total, rate, elapsed, want/2)
			}
			if merged.Count() != uint64(len(recs)) {
				t.Fatalf("merged Count = %d, want %d", merged.Count(), len(recs))
			}
			return
		default:
		}
		if vc.PendingTimers() > 0 {
			vc.Advance(time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// A canceller must not wait for the sleep to end: nobody advances the
// virtual clock here, so only the cancellation can wake the merge.
func TestMergeRateLimitCancelDuringSleep(t *testing.T) {
	dir := t.TempDir()
	src := buildTable(t, filepath.Join(dir, "src.sst"), seqRecords(500))
	defer src.Close()

	vc := clock.NewVirtual(time.Unix(0, 0))
	cancel := make(chan struct{})
	out := filepath.Join(dir, "m.sst")
	done := make(chan error, 1)
	go func() {
		_, err := Merge(out, MergeOptions{
			RateLimitBytesPerSec: 1, // one byte per second: parks immediately
			Clock:                vc,
			Cancel:               cancel,
		}, whole(src))
		done <- err
	}()

	vc.BlockUntilWaiters(1) // the merge is asleep in its limiter
	close(cancel)
	if err := <-done; !errors.Is(err, ErrMergeCanceled) {
		t.Fatalf("Merge err = %v, want ErrMergeCanceled", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("canceled merge left output behind: %v", err)
	}
}

func BenchmarkGetBlockCache(b *testing.B) {
	r := buildTable(b, filepath.Join(b.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	r.SetBlockCache(newCountingCache())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i%10000))
		if _, ok, err := r.Get(key); !ok || err != nil {
			b.Fatalf("miss on %q: %v", key, err)
		}
	}
}

// BenchmarkGetMissRefused is a point read of a block the cache misses:
// refused, it is read into a pooled buffer and only the record found
// is copied out; admitted, the block is read, indexed and handed to Put.
func BenchmarkGetMissRefused(b *testing.B) {
	r := buildTable(b, filepath.Join(b.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	for _, tc := range []struct {
		name  string
		admit bool
	}{{"refused", false}, {"admitted", true}} {
		b.Run(tc.name, func(b *testing.B) {
			r.SetBlockCache(missCache{tc.admit})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := r.Get(keys[i%len(keys)]); !ok || err != nil {
					b.Fatalf("miss on %q: %v", keys[i%len(keys)], err)
				}
			}
		})
	}
}

// A refused block is read and checked for each get that lands in it,
// and the record a get returns owns its bytes: a second get, through
// the same pooled buffer, leaves the first one's record as it was.
func TestRefusedGetOwnsItsRecord(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(2000))
	defer r.Close()
	c := newCountingCache()
	c.refuse = true
	r.SetBlockCache(c)
	first, ok, err := r.Get([]byte("key-000100"))
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if _, ok, err := r.Get([]byte("key-001900")); err != nil || !ok {
		t.Fatalf("second Get: ok=%v err=%v", ok, err)
	}
	if string(first.Key) != "key-000100" || string(first.Value) != "value-100" || first.Version != 101 {
		t.Fatalf("first record after a second get = %q %q v%d", first.Key, first.Value, first.Version)
	}
	if _, ok, err := r.Get([]byte("key-000100x")); ok || err != nil {
		t.Fatalf("Get of an absent key = %v, %v", ok, err)
	}
	n := 0
	if err := r.Scan([]byte("key-000100"), []byte("key-000900"), func(record.Record) bool { n++; return true }); err != nil || n != 800 {
		t.Fatalf("scan over refused blocks = %d records, %v; want 800", n, err)
	}
	if c.puts != 0 || len(c.blocks) != 0 || c.refused == 0 {
		t.Fatalf("a cache refusing every block was asked %d times and holds %d blocks after %d puts", c.refused, len(c.blocks), c.puts)
	}
}

// A corrupt frame anywhere in a block fails a get of any key in it
// when no cache keeps the block, as it does for a cached block.
func TestRefusedBlockVerified(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	r := buildTable(t, path, seqRecords(1000))
	off, _ := r.blockExtent(1)
	b, err := r.decodeBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	key := b.Record(b.Len() / 2).Key
	r.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range []int{0, b.Len() / 2, b.Len() - 1} {
		data := bytes.Clone(clean)
		data[off+uint64(b.offs[frame])] ^= 0xFF // the frame's CRC
		bad := filepath.Join(dir, fmt.Sprintf("bad-%d.sst", frame))
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cache := range []BlockCache{nil, missCache{false}} {
			r, err := Open(bad)
			if err != nil {
				t.Fatal(err)
			}
			r.SetBlockCache(cache)
			if _, _, err := r.Get(key); !errors.Is(err, record.ErrCorrupt) {
				t.Errorf("frame %d corrupt, cache %T: Get(%q) = %v, want ErrCorrupt", frame, cache, key, err)
			}
			r.Close()
		}
	}
}

func BenchmarkScan100BlockCache(b *testing.B) {
	r := buildTable(b, filepath.Join(b.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	r.SetBlockCache(newCountingCache())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_ = r.Scan([]byte("key-005000"), nil, func(record.Record) bool {
			n++
			return n < 100
		})
	}
}
