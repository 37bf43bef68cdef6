package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func bgKey(i int) []byte { return []byte(fmt.Sprintf("k-%04d", i)) }

var bgVal = bytes.Repeat([]byte("v"), 256)

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func putRange(t *testing.T, ns *Namespace, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := ns.Put(bgKey(i), bgVal); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func readRange(t *testing.T, ns *Namespace, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if v, ok, err := ns.Get(bgKey(i)); err != nil || !ok || !bytes.Equal(v, bgVal) {
			t.Fatalf("acked key %s: ok=%v err=%v", bgKey(i), ok, err)
		}
	}
}

// A flush whose WAL rotation fails keeps its memtable: every acked
// write still reads back, later writes land, the failure surfaces from
// the next Flush, and the flusher retries once the log can roll again.
func TestFailedWALRotationKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir) // 16 KiB memtable
	ns, err := e.Namespace("x")
	if err != nil {
		t.Fatal(err)
	}
	// Without its directory the namespace's log cannot open a new
	// segment, so every rotation, and every flush with it, fails.
	nsDir := filepath.Join(dir, "x")
	if err := os.RemoveAll(nsDir); err != nil {
		t.Fatal(err)
	}
	putRange(t, ns, 0, 256) // four memtables' worth
	waitFor(t, "the flusher's failure", func() bool {
		ns.mu.RLock()
		defer ns.mu.RUnlock()
		return ns.bgErr != nil
	})
	readRange(t, ns, 0, 256)
	if err := ns.Flush(); err == nil {
		t.Fatal("Flush after failed rotations reported no error")
	}
	putRange(t, ns, 256, 320)
	readRange(t, ns, 0, 320)

	// Once the log can roll again, the next write's wake-up flushes.
	if err := os.MkdirAll(filepath.Join(nsDir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	putRange(t, ns, 320, 321)
	waitFor(t, "the retried flush", func() bool { return ns.TableCount() > 0 })
	if err := ns.Flush(); err == nil {
		t.Fatal("the kept background failure did not surface from Flush")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTest(t, dir)
	defer e2.Close()
	ns2, err := e2.Namespace("x")
	if err != nil {
		t.Fatal(err)
	}
	readRange(t, ns2, 0, 321)
}

// A write never waits for a flush: while compactMu is held, as a
// running flush or a TruncateRange major compaction holds it, writes
// past MemtableBytes are acked and readable, and the one that crossed
// the threshold is durable on its own WAL append.
func TestWriteNeverWaitsForFlush(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir)
	defer e.Close()
	ns, err := e.Namespace("w")
	if err != nil {
		t.Fatal(err)
	}
	memBytes := func() int64 {
		ns.mu.RLock()
		defer ns.mu.RUnlock()
		return ns.mem.Bytes()
	}
	ns.compactMu.Lock()
	held := true
	defer func() {
		if held {
			ns.compactMu.Unlock()
		}
	}()

	const n = 256 // four memtables' worth
	crossed := -1
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := ns.Put(bgKey(i), bgVal); err != nil {
				done <- err
				return
			}
			if crossed < 0 && memBytes() >= e.opts.MemtableBytes {
				crossed = i
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writes past MemtableBytes still blocked after 5 s behind a held flush lock")
	}
	if crossed < 0 || ns.TableCount() != 0 {
		t.Fatalf("crossing write %d, %d tables: want the memtable past its threshold, unflushed", crossed, ns.TableCount())
	}
	readRange(t, ns, 0, n)

	// What the WAL holds now, with no flush run, recovers every acked
	// write, the crossing one included.
	copyDir := t.TempDir()
	if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	cp := openTest(t, copyDir)
	cpNS, err := cp.Namespace("w")
	if err != nil {
		t.Fatal(err)
	}
	readRange(t, cpNS, 0, n)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	held = false
	ns.compactMu.Unlock()
	waitFor(t, "the flusher", func() bool { return ns.TableCount() > 0 })
	readRange(t, ns, 0, n)
}

// Close joins the flusher and the compactor, cancelling a throttled
// merge in flight; an in-memory engine starts no goroutine.
func TestCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	mem, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("in-memory engine: goroutines %d -> %d", before, n)
	}
	mem.Close()

	e, err := Open(Options{
		Dir:                 t.TempDir(),
		MemtableBytes:       16 << 10,
		MaxTables:           2,
		NodeID:              1,
		CompactionRateBytes: 1 << 10, // a merge takes tens of seconds
	})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := e.Namespace("c")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		putRange(t, ns, r*40, (r+1)*40)
		if err := ns.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a merge in flight", func() bool {
		e.cmu.Lock()
		defer e.cmu.Unlock()
		return e.merging == ns
	})
	putRange(t, ns, 160, 224) // past MemtableBytes: a flush is due
	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v: it waited out the throttled merge", d)
	}
	// A joined goroutine may still be on its way out; fewer than before
	// is no fault.
	waitFor(t, "the workers to exit", func() bool { return runtime.NumGoroutine() <= before })
}
