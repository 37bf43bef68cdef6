package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/record"
	"scads/internal/sstable"
)

// Engine-level block cache: repeated point reads of flushed data are
// served from cached blocks.
func TestEngineBlockCacheHits(t *testing.T) {
	e, err := Open(Options{
		Dir:             t.TempDir(),
		MemtableBytes:   1 << 20,
		MaxTables:       8,
		NodeID:          1,
		CacheBytes:      -1, // the cache is BlockCacheBytes alone
		BlockCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, _ := e.Namespace("b")
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := ns.Get([]byte(fmt.Sprintf("k-%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v-%04d", i) {
			t.Fatalf("first pass Get(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	st := e.BlockCache().Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("first pass filled nothing: %+v", st)
	}
	hitsAfterFill := st.Hits
	for i := 0; i < n; i++ {
		if _, ok, err := ns.Get([]byte(fmt.Sprintf("k-%04d", i))); !ok || err != nil {
			t.Fatalf("second pass Get(%d): ok=%v err=%v", i, ok, err)
		}
	}
	st = e.BlockCache().Stats()
	if got := st.Hits - hitsAfterFill; got != n {
		t.Fatalf("second pass block-cache hits = %d, want %d (every read cached)", got, n)
	}
	if es := e.Stats(); es.BlockCache.Hits != st.Hits {
		t.Fatalf("engine Stats.BlockCache out of sync: %+v vs %+v", es.BlockCache, st)
	}
}

// CacheBytes -1 with BlockCacheBytes 0 is the ablation: no cache is
// constructed and reads take the raw block path.
func TestEngineBlockCacheAblation(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), MemtableBytes: 1 << 20, NodeID: 1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.BlockCache() != nil {
		t.Fatal("an empty budget still built a block cache")
	}
	ns, _ := e.Namespace("b")
	if _, err := ns.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := ns.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("uncached Get = %q,%v,%v", v, ok, err)
	}
}

// A scan started before background compaction splices the stack must
// finish against the tables it snapshotted, even though the merge
// unlinks them mid-scan (reference counting pins the files).
func TestScanSurvivesConcurrentCompaction(t *testing.T) {
	e, err := Open(Options{
		Dir:           t.TempDir(),
		MemtableBytes: 16 << 10,
		MaxTables:     3,
		NodeID:        1,
		// Throttle the background merges so they are reliably still
		// running while the slow scan below walks the doomed tables.
		CompactionRateBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, _ := e.Namespace("s")
	const rounds, perRound = 6, 40
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			key := fmt.Sprintf("k-%02d-%03d", r, i)
			if _, err := ns.Put([]byte(key), bytes.Repeat([]byte("v"), 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ns.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool)
	err = ns.ScanLive(nil, nil, func(rec record.Record) bool {
		seen[string(rec.Key)] = true
		time.Sleep(200 * time.Microsecond)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			key := fmt.Sprintf("k-%02d-%03d", r, i)
			if !seen[key] {
				t.Fatalf("scan under compaction lost %q (saw %d keys)", key, len(seen))
			}
		}
	}
}

// Crash between the WAL rotate and the WAL truncate of a flush: the
// SSTable exists AND the pre-flush segments survive, so recovery
// replays records that are also in the table. Replay must be a no-op
// for correctness (same versions, LWW) — every key readable exactly
// once with its latest value.
func TestCrashBetweenWALRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir)
	ns, err := e.Namespace("c")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v1-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the WAL segments that hold the unflushed records.
	walDir := filepath.Join(dir, "c", "wal")
	snap := map[string][]byte{}
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(walDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[ent.Name()] = data
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: resurrect the pre-flush segments, as
	// if the process died after writing the SSTable but before the
	// truncate's removals hit the disk. The old engine is abandoned
	// without Close, exactly like a crash.
	crash(e)
	for name, data := range snap {
		if err := os.WriteFile(filepath.Join(walDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2, err := Open(Options{Dir: dir, MemtableBytes: 16 << 10, MaxTables: 3, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ns2, err := e2.Namespace("c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k-%03d", i)
		v, ok, err := ns2.Get([]byte(key))
		if err != nil || !ok || string(v) != fmt.Sprintf("v1-%03d", i) {
			t.Fatalf("after replayed flush window, Get(%q) = %q,%v,%v", key, v, ok, err)
		}
	}
	count := 0
	if err := ns2.ScanLive(nil, nil, func(record.Record) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan sees %d records after duplicate replay, want %d", count, n)
	}
	// Re-flushing the replayed memtable must not corrupt anything.
	if err := ns2.Flush(); err != nil {
		t.Fatal(err)
	}
	count = 0
	if err := ns2.ScanLive(nil, nil, func(record.Record) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan sees %d records after re-flush, want %d", count, n)
	}
}

// Race hammer: concurrent point reads, scans and range truncations
// while size-tiered background compaction churns the table stack.
// Invariants: a read of an acked key returns a value at least as new
// as the last acknowledged write, scans always see every live key
// exactly once, and truncated ranges stay empty until rewritten.
func TestCompactionTruncateRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer: skipped in -short mode")
	}
	e, err := Open(Options{
		Dir:             t.TempDir(),
		MemtableBytes:   8 << 10, // flush constantly
		MaxTables:       3,
		NodeID:          1,
		CacheBytes:      -1,
		BlockCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := e.Namespace("h")
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("h-%03d", i)) }
	val := func(c int64) []byte { return []byte(fmt.Sprintf("%08d", c)) }
	var acked [nKeys]atomic.Int64
	for i := 0; i < nKeys; i++ {
		if _, err := ns.Put(key(i), val(1)); err != nil {
			t.Fatal(err)
		}
		acked[i].Store(1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Writer: bump every key's counter, acknowledging after each write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := int64(2); ; c++ {
			for i := 0; i < nKeys; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ns.Put(key(i), val(c)); err != nil {
					fail("writer: %v", err)
					return
				}
				acked[i].Store(c)
			}
		}
	}()

	// Point readers: value must be >= the counter acked before the read.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(nKeys)
				lo := acked[i].Load()
				v, ok, err := ns.Get(key(i))
				if err != nil || !ok {
					fail("reader: Get(%s) = ok=%v err=%v", key(i), ok, err)
					return
				}
				c, perr := strconv.ParseInt(string(v), 10, 64)
				if perr != nil || c < lo {
					fail("reader: Get(%s) = %q, want counter >= %d", key(i), v, lo)
					return
				}
			}
		}(int64(g) + 42)
	}

	// Scanner: every live key exactly once, each at least as new as its
	// ack floor captured before the scan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var lo [nKeys]int64
			for i := range lo {
				lo[i] = acked[i].Load()
			}
			seen := 0
			err := ns.ScanLive([]byte("h-"), []byte("h."), func(rec record.Record) bool {
				var i int
				if _, serr := fmt.Sscanf(string(rec.Key), "h-%03d", &i); serr != nil {
					fail("scanner: bad key %q", rec.Key)
					return false
				}
				c, perr := strconv.ParseInt(string(rec.Value), 10, 64)
				if perr != nil || c < lo[i] {
					fail("scanner: key %q = %q, want counter >= %d", rec.Key, rec.Value, lo[i])
					return false
				}
				seen++
				return true
			})
			if err != nil {
				fail("scanner: %v", err)
				return
			}
			if seen != nKeys && !t.Failed() {
				fail("scanner: saw %d keys, want %d", seen, nKeys)
				return
			}
		}
	}()

	// Truncator: writes a disjoint prefix and erases it; after
	// TruncateRange returns, the range reads empty.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 20; i++ {
				if _, err := ns.Put([]byte(fmt.Sprintf("t-%03d", i)), val(int64(round))); err != nil {
					fail("truncator put: %v", err)
					return
				}
			}
			if _, err := ns.TruncateRange([]byte("t-"), []byte("t.")); err != nil {
				fail("truncator: %v", err)
				return
			}
			for i := 0; i < 20; i++ {
				if _, ok, err := ns.Get([]byte(fmt.Sprintf("t-%03d", i))); ok || err != nil {
					fail("truncated key t-%03d still visible (ok=%v err=%v)", i, ok, err)
					return
				}
			}
		}
	}()

	time.Sleep(1200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		e.Close()
		t.FailNow()
	}

	// Final state: every hammered key holds its last acked counter.
	for i := 0; i < nKeys; i++ {
		v, ok, err := ns.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("final Get(%s): ok=%v err=%v", key(i), ok, err)
		}
		c, _ := strconv.ParseInt(string(v), 10, 64)
		if want := acked[i].Load(); c != want {
			t.Fatalf("final Get(%s) = %d, want %d", key(i), c, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// Scale independence at the storage layer: what a bounded scan costs
// depends on what it returns, not on how much the tables hold. Cost is
// counted in table blocks fetched (block-cache hits + misses).
func TestScanCostIndependentOfTableSize(t *testing.T) {
	const tables, limit, page = 3, 100, 10000
	type cost struct{ limited, full, walk, pages int64 }
	measure := func(t *testing.T, rows int) cost {
		e, err := Open(Options{
			Dir:             t.TempDir(),
			MemtableBytes:   256 << 20, // flushes happen only where the test asks
			MaxTables:       2 * tables,
			NodeID:          1,
			BlockCacheBytes: 256 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ns, _ := e.Namespace("s")
		key := func(i int) []byte { return []byte(fmt.Sprintf("k-%07d", i)) }
		// Every table spans the whole key range: row i lives in table i%3.
		for tbl := 0; tbl < tables; tbl++ {
			var batch []record.Record
			for i := tbl; i < rows; i += tables {
				batch = append(batch, record.Record{Key: key(i), Value: bytes.Repeat([]byte("v"), 32), Version: uint64(i + 1)})
			}
			if err := ns.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := ns.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got := ns.TableCount(); got != tables {
			t.Fatalf("TableCount = %d, want %d", got, tables)
		}
		blocks := func(fn func()) int64 {
			before := e.BlockCache().Stats()
			fn()
			after := e.BlockCache().Stats()
			return after.Hits + after.Misses - before.Hits - before.Misses
		}
		var c cost
		c.limited = blocks(func() {
			n := 0
			if err := ns.ScanLive(key(rows/2), nil, func(record.Record) bool { n++; return n < limit }); err != nil || n != limit {
				t.Fatalf("limited scan: %d rows, err %v", n, err)
			}
		})
		c.full = blocks(func() {
			n := 0
			if err := ns.ScanAll(nil, nil, func(record.Record) bool { n++; return true }); err != nil || n != rows {
				t.Fatalf("full scan: %d rows, err %v", n, err)
			}
		})
		c.walk = blocks(func() {
			var start []byte
			seen := 0
			for seen < rows {
				n := 0
				if err := ns.ScanAll(start, nil, func(r record.Record) bool {
					start = append(append(start[:0], r.Key...), 0)
					n++
					return n < page
				}); err != nil || n == 0 {
					t.Fatalf("page %d: %d rows, err %v", c.pages, n, err)
				}
				seen += n
				c.pages++
			}
		})
		return c
	}

	var costs []cost
	for _, rows := range []int{10000, 160000} {
		t.Run(strconv.Itoa(rows), func(t *testing.T) {
			c := measure(t, rows)
			t.Logf("%d rows: LIMIT-%d scan %d blocks; full scan %d blocks; %d-page walk %d blocks", rows, limit, c.limited, c.full, c.pages, c.walk)
			// A page re-reads the block its start key falls in and reads
			// one block ahead, per table; the rest it reads once.
			if bound := c.full + 2*tables*c.pages; c.walk > bound {
				t.Errorf("paged walk of %d rows fetched %d blocks, want <= %d (the %d a full scan reads + 2 per table per page)", rows, c.walk, bound, c.full)
			}
			costs = append(costs, c)
		})
	}
	if len(costs) == 2 {
		if d := costs[1].limited - costs[0].limited; d > tables || d < -tables {
			t.Errorf("LIMIT-%d scan fetched %d blocks at 10k rows and %d at 160k: cost grows with table size", limit, costs[0].limited, costs[1].limited)
		}
	}
}

// A crash while a flush or a merge is writing its output leaves an
// unfinished table behind. The next Open must discard it and serve
// every key from what the crash left whole: the WAL and the finished
// tables.
func TestReopenAfterTornTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flushes int // finished tables before the crash
	}{
		{"torn flush", 1},
		{"torn merge output", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := openTest(t, dir)
			ns, err := e.Namespace("t")
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			put := func(round int) {
				for i := 0; i < 40; i++ {
					k, v := fmt.Sprintf("k-%02d-%03d", round, i), fmt.Sprintf("v-%02d-%03d", round, i)
					if _, err := ns.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					want[k] = v
				}
			}
			for round := 0; round < tc.flushes; round++ {
				put(round)
				if err := ns.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			ns.WaitCompaction()
			put(tc.flushes) // these stay in the memtable and the WAL

			// The crash: the table the next flush or merge would write
			// has some records and no footer. Producing it with the real
			// Writer keeps the test honest about where such a file lands.
			// The engine is abandoned without Close, as a crash would.
			crash(e)
			ns.mu.RLock()
			torn := ns.tablePath(ns.tableSeq)
			ns.mu.RUnlock()
			w, err := sstable.NewWriter(torn)
			if err != nil {
				t.Fatal(err)
			}
			if err := ns.ScanAll(nil, nil, func(r record.Record) bool { return w.Add(r) == nil }); err != nil {
				t.Fatal(err)
			}

			// Room for one more table: the flush below must not kick a
			// tier merge, whose own .tmp output the leftover check would
			// catch in flight.
			e2, err := Open(Options{Dir: dir, MemtableBytes: 16 << 10, MaxTables: 8, NodeID: 1})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			defer e2.Close()
			ns2, err := e2.Namespace("t")
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range want {
				if got, ok, err := ns2.Get([]byte(k)); err != nil || !ok || string(got) != v {
					t.Fatalf("after %s, Get(%q) = %q,%v,%v, want %q", tc.name, k, got, ok, err, v)
				}
			}
			// The next flush reuses the torn table's sequence number.
			if err := ns2.Flush(); err != nil {
				t.Fatal(err)
			}
			leftovers, err := filepath.Glob(filepath.Join(dir, "t", "*"+sstable.TmpSuffix))
			if err != nil || len(leftovers) != 0 {
				t.Fatalf("unfinished tables survive reopen: %v (err %v)", leftovers, err)
			}
			n := 0
			if err := ns2.ScanLive(nil, nil, func(record.Record) bool { n++; return true }); err != nil || n != len(want) {
				t.Fatalf("scan after reopen and flush: %d rows, err %v, want %d", n, err, len(want))
			}
		})
	}
}
