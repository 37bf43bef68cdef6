package storage

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

// crash drops e as a crash would: its flusher and compactor stop, so
// they write nothing more into its directory, and nothing is flushed
// or closed.
func crash(e *Engine) { e.stopWorkers() }

func openTest(t testing.TB, dir string) *Engine {
	t.Helper()
	e, err := Open(Options{Dir: dir, MemtableBytes: 16 << 10, MaxTables: 3, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPutGetDelete(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Put([]byte("alice"), []byte("profile-a")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ns.Get([]byte("alice"))
	if err != nil || !ok || string(v) != "profile-a" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if _, err := ns.Delete([]byte("alice")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ns.Get([]byte("alice")); ok {
		t.Fatal("deleted key still visible")
	}
	// The tombstone itself is visible through GetRecord.
	rec, ok, _ := ns.GetRecord([]byte("alice"))
	if !ok || !rec.Tombstone {
		t.Fatalf("tombstone not visible: %+v ok=%v", rec, ok)
	}
}

func TestInvalidNamespaceName(t *testing.T) {
	e := openTest(t, "")
	defer e.Close()
	for _, bad := range []string{"", "1abc", "with space", "../escape", "a/b"} {
		if _, err := e.Namespace(bad); err == nil {
			t.Errorf("Namespace(%q) accepted", bad)
		}
	}
	for _, good := range []string{"users", "friend_index", "idx.birthday", "A-1"} {
		if _, err := e.Namespace(good); err != nil {
			t.Errorf("Namespace(%q) rejected: %v", good, err)
		}
	}
}

// TestNamespaceHitSkipsNameCheck: every data-plane request resolves
// its namespace, so a hit on an open one must cost a map lookup and no
// more. With the name pattern swapped for one nothing matches, a hit
// still succeeds — the check is not on that path — and allocates
// nothing, while a first use is still validated.
func TestNamespaceHitSkipsNameCheck(t *testing.T) {
	e := openTest(t, "")
	defer e.Close()
	want, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	saved := namespaceNameRE
	namespaceNameRE = regexp.MustCompile(`^\z.`)
	defer func() { namespaceNameRE = saved }()

	if allocs := testing.AllocsPerRun(100, func() {
		if ns, err := e.Namespace("users"); err != nil || ns != want {
			t.Fatalf("hit on an open namespace = %p, %v; want %p", ns, err, want)
		}
	}); allocs != 0 {
		t.Errorf("hit on an open namespace allocates %.1f times, want 0", allocs)
	}
	if _, err := e.Namespace("friends"); err == nil {
		t.Error("first use of a namespace skipped the name check")
	}
}

func TestVersionsMonotonic(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC))
	e, err := Open(Options{Clock: vc, NodeID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var last uint64
	for i := 0; i < 1000; i++ {
		v := e.NextVersion()
		if v <= last {
			t.Fatalf("version %d not monotonic after %d", v, last)
		}
		if v&0xFFFF != 7 {
			t.Fatalf("version %x lost node ID bits", v)
		}
		last = v
	}
	// Advancing the clock keeps monotonicity and tracks wall time.
	vc.Advance(time.Second)
	v := e.NextVersion()
	if v <= last {
		t.Fatal("version went backwards after clock advance")
	}
}

func TestFlushAndRecover(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir)
	ns, _ := e.Namespace("users")
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("user-%04d", i)), bytes.Repeat([]byte("x"), 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	if ns.TableCount() == 0 {
		t.Fatal("no SSTable after explicit flush")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must be back.
	e2 := openTest(t, dir)
	defer e2.Close()
	ns2, err := e2.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user-%04d", i))
		if _, ok, err := ns2.Get(key); !ok || err != nil {
			t.Fatalf("lost key %q after recovery: ok=%v err=%v", key, ok, err)
		}
	}
}

func TestWALRecoveryWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir)
	ns, _ := e.Namespace("users")
	if _, err := ns.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: close WAL file handles without flushing by
	// closing the engine (close flushes; instead reopen over the same
	// dir while the first engine still has data only in WAL).
	// To exercise WAL-only recovery we bypass Close: the WAL already
	// has the record on disk.
	e2 := openTest(t, dir)
	defer e2.Close()
	ns2, _ := e2.Namespace("users")
	if v, ok, _ := ns2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("WAL-only recovery failed: %q %v", v, ok)
	}
	e.Close()
}

func TestAutoFlushOnThreshold(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("big")
	// 16 KiB threshold; write ~64 KiB.
	for i := 0; i < 256; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k-%04d", i)), bytes.Repeat([]byte("v"), 256)); err != nil {
			t.Fatal(err)
		}
	}
	// The write that fills the memtable wakes the flusher; it does not
	// flush.
	for deadline := time.Now().Add(5 * time.Second); ns.TableCount() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if ns.TableCount() == 0 {
		t.Fatal("memtable never auto-flushed")
	}
	// All data still readable.
	for i := 0; i < 256; i++ {
		if _, ok, err := ns.Get([]byte(fmt.Sprintf("k-%04d", i))); !ok || err != nil {
			t.Fatalf("key %d missing after auto-flush", i)
		}
	}
}

func TestCompactionBoundsTableCount(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("c")
	for round := 0; round < 8; round++ {
		for i := 0; i < 50; i++ {
			ns.Put([]byte(fmt.Sprintf("k-%02d-%02d", round, i)), bytes.Repeat([]byte("v"), 64))
		}
		if err := ns.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction is a background size-tiered pass; wait for the stack
	// to converge under the MaxTables budget.
	deadline := time.Now().Add(5 * time.Second)
	for ns.TableCount() > 4 {
		ns.WaitCompaction()
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := ns.TableCount(); got > 4 {
		t.Fatalf("TableCount = %d after compaction, want <= 4", got)
	}
	// Every key from every round survives.
	for round := 0; round < 8; round++ {
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("k-%02d-%02d", round, i))
			if _, ok, err := ns.Get(key); !ok || err != nil {
				t.Fatalf("key %q lost in compaction: ok=%v err=%v", key, ok, err)
			}
		}
	}
}

func TestScanMergedAcrossLayers(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("s")
	// Layer 1 (oldest, flushed): even keys v1.
	for i := 0; i < 20; i += 2 {
		ns.Put([]byte(fmt.Sprintf("k-%02d", i)), []byte("old"))
	}
	ns.Flush()
	// Layer 2 (flushed): odd keys.
	for i := 1; i < 20; i += 2 {
		ns.Put([]byte(fmt.Sprintf("k-%02d", i)), []byte("mid"))
	}
	ns.Flush()
	// Memtable: overwrite a few evens, delete one odd.
	ns.Put([]byte("k-04"), []byte("new"))
	ns.Delete([]byte("k-07"))

	var keys []string
	vals := map[string]string{}
	err := ns.ScanLive([]byte("k-00"), []byte("k-20"), func(r record.Record) bool {
		keys = append(keys, string(r.Key))
		vals[string(r.Key)] = string(r.Value)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 19 { // 20 keys minus 1 deleted
		t.Fatalf("scan returned %d keys, want 19: %v", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %q >= %q", keys[i-1], keys[i])
		}
	}
	if vals["k-04"] != "new" {
		t.Fatalf("memtable overwrite not visible in scan: %q", vals["k-04"])
	}
	if _, ok := vals["k-07"]; ok {
		t.Fatal("deleted key visible in live scan")
	}
}

func TestScanEarlyStop(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("s")
	for i := 0; i < 100; i++ {
		ns.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	n := 0
	ns.ScanLive(nil, nil, func(record.Record) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
}

func TestApplyLWWAcrossFlushedLayers(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("r")
	// Newer version lands and is flushed to an SSTable.
	if err := ns.Apply(record.Record{Key: []byte("k"), Value: []byte("new"), Version: 100}); err != nil {
		t.Fatal(err)
	}
	ns.Flush()
	// An older replicated write arrives late; it must not shadow the
	// flushed newer version even though the memtable is empty.
	if err := ns.Apply(record.Record{Key: []byte("k"), Value: []byte("stale"), Version: 50}); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := ns.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("stale replicated write won: %q", v)
	}
}

func TestInMemoryEngine(t *testing.T) {
	e := openTest(t, "")
	defer e.Close()
	ns, _ := e.Namespace("mem")
	for i := 0; i < 1000; i++ {
		ns.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte("v"))
	}
	if ns.TableCount() != 0 {
		t.Fatal("in-memory namespace produced SSTables")
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	ns.ScanLive(nil, nil, func(record.Record) bool { n++; return true })
	if n != 1000 {
		t.Fatalf("scan saw %d records, want 1000", n)
	}
}

func TestClosedEngine(t *testing.T) {
	e := openTest(t, t.TempDir())
	ns, _ := e.Namespace("x")
	ns.Put([]byte("k"), []byte("v"))
	e.Close()
	if _, err := ns.Put([]byte("k2"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := ns.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := e.Namespace("y"); err != ErrClosed {
		t.Fatalf("Namespace after close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestNamespacesListedSorted(t *testing.T) {
	e := openTest(t, "")
	defer e.Close()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		e.Namespace(n)
	}
	got := e.Namespaces()
	want := []string{"alpha", "mid", "zeta"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Namespaces = %v", got)
	}
}

func TestStats(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("s")
	for i := 0; i < 10; i++ {
		ns.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	s := e.Stats()
	if s.Namespaces != 1 || s.RecordCount != 10 || s.MemtableBytes <= 0 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	e := openTest(t, t.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("conc")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := []byte(fmt.Sprintf("w%d-%03d", w, i))
				if _, err := ns.Put(key, bytes.Repeat([]byte("p"), 64)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, _, err := ns.Get(key); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ns.ScanLive(nil, nil, func(record.Record) bool { return true })
			}
		}()
	}
	wg.Wait()
	n := 0
	ns.ScanLive(nil, nil, func(record.Record) bool { n++; return true })
	if n != 4*200 {
		t.Fatalf("final scan saw %d records, want 800", n)
	}
}

// Property: a random interleaving of puts and deletes across flush
// boundaries matches a model map.
func TestQuickEngineMatchesModel(t *testing.T) {
	type op struct {
		Key    uint8
		Del    bool
		FlushB bool
	}
	dir := t.TempDir()
	iter := 0
	f := func(ops []op) bool {
		iter++
		e, err := Open(Options{Dir: fmt.Sprintf("%s/run%d", dir, iter), MemtableBytes: 1 << 20, NodeID: 1})
		if err != nil {
			return false
		}
		defer e.Close()
		ns, err := e.Namespace("m")
		if err != nil {
			return false
		}
		model := map[string]string{}
		for i, o := range ops {
			key := fmt.Sprintf("k%02x", o.Key%16)
			if o.Del {
				if _, err := ns.Delete([]byte(key)); err != nil {
					return false
				}
				delete(model, key)
			} else {
				val := fmt.Sprintf("v%d", i)
				if _, err := ns.Put([]byte(key), []byte(val)); err != nil {
					return false
				}
				model[key] = val
			}
			if o.FlushB {
				if err := ns.Flush(); err != nil {
					return false
				}
			}
		}
		// Verify via gets.
		for k, v := range model {
			got, ok, err := ns.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		// Verify via scan.
		seen := map[string]string{}
		ns.ScanLive(nil, nil, func(r record.Record) bool {
			seen[string(r.Key)] = string(r.Value)
			return true
		})
		if len(seen) != len(model) {
			return false
		}
		for k, v := range model {
			if seen[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnginePut(b *testing.B) {
	e := openTest(b, b.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("bench")
	val := bytes.Repeat([]byte("v"), 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("user-%08d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGet(b *testing.B) {
	e := openTest(b, b.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("bench")
	const n = 10000
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < n; i++ {
		ns.Put([]byte(fmt.Sprintf("user-%08d", i)), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ns.Get([]byte(fmt.Sprintf("user-%08d", i%n))); !ok || err != nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkEngineScan50(b *testing.B) {
	e := openTest(b, b.TempDir())
	defer e.Close()
	ns, _ := e.Namespace("bench")
	for i := 0; i < 10000; i++ {
		ns.Put([]byte(fmt.Sprintf("user-%08d", i)), []byte("v"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ns.ScanLive([]byte("user-00005000"), nil, func(record.Record) bool {
			n++
			return n < 50
		})
	}
}

// Property: abandoning the engine without Close (a crash) and
// reopening from the same directory never loses an acknowledged write.
func TestQuickCrashRecoveryDurability(t *testing.T) {
	type op struct {
		Key   uint8
		Del   bool
		Crash bool
	}
	dir := t.TempDir()
	iter := 0
	f := func(ops []op) bool {
		iter++
		runDir := fmt.Sprintf("%s/crash%d", dir, iter)
		e, err := Open(Options{Dir: runDir, MemtableBytes: 2 << 10, NodeID: 1})
		if err != nil {
			return false
		}
		defer func() { e.Close() }() // the engine recovered last
		ns, err := e.Namespace("m")
		if err != nil {
			return false
		}
		model := map[string]string{}
		for i, o := range ops {
			key := fmt.Sprintf("k%02x", o.Key%32)
			if o.Del {
				if _, err := ns.Delete([]byte(key)); err != nil {
					return false
				}
				delete(model, key)
			} else {
				val := fmt.Sprintf("v%d", i)
				if _, err := ns.Put([]byte(key), []byte(val)); err != nil {
					return false
				}
				model[key] = val
			}
			if o.Crash {
				// Crash: drop the engine without flushing or closing,
				// then recover from disk (WAL + SSTables).
				crash(e)
				e2, err := Open(Options{Dir: runDir, MemtableBytes: 2 << 10, NodeID: 1})
				if err != nil {
					return false
				}
				e = e2
				ns, err = e.Namespace("m")
				if err != nil {
					return false
				}
			}
		}
		for k, v := range model {
			got, ok, err := ns.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		count := 0
		ns.ScanLive(nil, nil, func(record.Record) bool { count++; return true })
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxVersionTracksFreshness: MaxVersion rises with the highest
// accepted record version — including externally versioned applies —
// and ignores stale records the LWW check rejects. It is the failover
// freshness probe, so the contract matters: a replica that accepted a
// newer write must always rank above one that did not.
func TestMaxVersionTracksFreshness(t *testing.T) {
	e := openTest(t, "")
	defer e.Close()
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	if got := ns.MaxVersion(); got != 0 {
		t.Fatalf("fresh namespace MaxVersion = %d", got)
	}
	if err := ns.Apply(record.Record{Key: []byte("a"), Value: []byte("v"), Version: 500}); err != nil {
		t.Fatal(err)
	}
	if got := ns.MaxVersion(); got != 500 {
		t.Fatalf("MaxVersion = %d, want 500", got)
	}
	// A superseded (stale) apply is rejected and must not move the
	// watermark backwards or forwards.
	if err := ns.Apply(record.Record{Key: []byte("a"), Value: []byte("old"), Version: 100}); err != nil {
		t.Fatal(err)
	}
	if got := ns.MaxVersion(); got != 500 {
		t.Fatalf("MaxVersion after stale apply = %d, want 500", got)
	}
	// A newer record on a different key raises it; tombstones count.
	if err := ns.Apply(record.Record{Key: []byte("b"), Version: 900, Tombstone: true}); err != nil {
		t.Fatal(err)
	}
	if got := ns.MaxVersion(); got != 900 {
		t.Fatalf("MaxVersion after tombstone = %d, want 900", got)
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

// openCached opens a disk-backed engine whose one read cache is a 1 MiB
// block cache, and a namespace in it.
func openCached(t *testing.T) (*Engine, *Namespace) {
	t.Helper()
	e, err := Open(Options{Dir: t.TempDir(), NodeID: 1, CacheBytes: -1, BlockCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ns, err := e.Namespace("users")
	if err != nil {
		t.Fatal(err)
	}
	return e, ns
}

func mustGet(t *testing.T, ns *Namespace, key, want string) {
	t.Helper()
	v, ok, err := ns.Get([]byte(key))
	if err != nil || !ok || string(v) != want {
		t.Fatalf("Get(%s) = %q,%v,%v, want %q", key, v, ok, err, want)
	}
}

func mustMiss(t *testing.T, ns *Namespace, key string) {
	t.Helper()
	if v, ok, err := ns.Get([]byte(key)); err != nil || ok {
		t.Fatalf("Get(%s) = %q,%v,%v, want absent", key, v, ok, err)
	}
}

// A read served from a cached block still sees every later write: the
// put and the delete land above the table, and a read resolves them by
// version before the block.
func TestReadAfterWriteOverCachedBlock(t *testing.T) {
	e, ns := openCached(t)
	if _, err := ns.Put([]byte("alice"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, ns, "alice", "v1") // fills the block
	before := e.BlockCache().Stats()
	mustGet(t, ns, "alice", "v1")
	if after := e.BlockCache().Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("expected a block-cache hit: before=%+v after=%+v", before, after)
	}

	if _, err := ns.Put([]byte("alice"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, ns, "alice", "v2")
	if _, err := ns.Delete([]byte("alice")); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, ns, "alice")
	// Flushed, the tombstone and the cached put are two tables apart.
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, ns, "alice")
}

// A key missed in a table whose block is cached is found once it is
// inserted, before and after the insert is flushed.
func TestInsertAfterMissOverCachedBlock(t *testing.T) {
	_, ns := openCached(t)
	for _, k := range []string{"alice", "carol"} {
		if _, err := ns.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, ns, "alice", "v") // caches the block bob would be in
	mustMiss(t, ns, "bob")
	if _, err := ns.Put([]byte("bob"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, ns, "bob", "v1")
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, ns, "bob", "v1")
}

// Readers racing a writer over cached blocks, flushes and memtables
// never see a key's value go back, and the writer reads its own write
// at once.
func TestCacheConcurrentReadWrite(t *testing.T) {
	_, ns := openCached(t)
	const keys = 32
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i%keys)) }
	for i := 0; i < keys; i++ {
		if _, err := ns.Put(key(i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [keys]int
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, ok, err := ns.Get(key(i))
				if err != nil || !ok {
					t.Errorf("Get(%s) = %q,%v,%v", key(i), v, ok, err)
					return
				}
				n, _ := strconv.Atoi(string(v))
				if n < last[i%keys] {
					t.Errorf("%s went back from %d to %d", key(i), last[i%keys], n)
					return
				}
				last[i%keys] = n
			}
		}()
	}
	for i := keys; i < 2000; i++ {
		if _, err := ns.Put(key(i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		mustGet(t, ns, string(key(i)), strconv.Itoa(i))
		if i%250 == 0 {
			if err := ns.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The engine's one read cache is sized CacheBytes (0 = 32 MiB,
// negative = nothing) plus BlockCacheBytes (<= 0 = nothing), so a
// configuration that sized two caches keeps their memory in one.
func TestOneCacheBudget(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		opts Options
		want int64
	}{
		{"two caches of 2 MiB", Options{Dir: dir, CacheBytes: 2 << 20, BlockCacheBytes: 2 << 20}, 4 << 20},
		{"defaults", Options{Dir: dir}, 32 << 20},
		{"raw block path", Options{Dir: dir, CacheBytes: -1}, 0},
		{"in memory", Options{BlockCacheBytes: 2 << 20}, 0},
	} {
		e, err := Open(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		if c := e.BlockCache(); c != nil {
			for i := range c.shards {
				got += c.shards[i].maxBytes
			}
		}
		e.Close()
		if got != tc.want {
			t.Errorf("%s: a %d-byte block cache, want %d", tc.name, got, tc.want)
		}
	}
}

// A point read of a flushed key whose block is cached allocates
// nothing: the record aliases the cached block.
func TestCachedGetRecordAllocs(t *testing.T) {
	_, ns := openCached(t)
	for i := 0; i < 100; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("user-%08d", i)), bytes.Repeat([]byte("v"), 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	key := []byte("user-00000042")
	get := func() {
		if rec, ok, err := ns.GetRecord(key); !ok || err != nil || len(rec.Value) != 80 {
			t.Fatalf("GetRecord = %+v,%v,%v", rec, ok, err)
		}
	}
	get() // fill the block
	if n := testing.AllocsPerRun(200, get); n != 0 {
		t.Errorf("GetRecord of a cached block's key: %v allocs, want 0", n)
	}
}
