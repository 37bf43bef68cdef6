package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scads/internal/record"
)

func rec(k, v string, ver uint64) record.Record {
	return record.Record{Key: []byte(k), Value: []byte(v), Version: ver}
}

// appendOne appends rec as a batch of one.
func appendOne(l *Log, rec record.Record) error {
	return l.AppendBatch([]record.Record{rec})
}

// segmentCount reports how many segment files the log's directory
// holds.
func segmentCount(t *testing.T, l *Log) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	ids, err := l.segmentIDs()
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// validTail returns the byte offset just past the last decodable frame
// in a segment image. Segments are preallocated, so the file extends
// past the logical tail with zero padding.
func validTail(data []byte) int64 {
	rest := data
	for {
		_, rem, err := record.DecodeBinary(rest)
		if err != nil {
			return int64(len(data) - len(rest))
		}
		rest = rem
	}
}

func TestAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	l, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recovered))
	}
	want := []record.Record{
		rec("a", "1", 1),
		rec("b", "2", 2),
		{Key: []byte("a"), Version: 3, Tombstone: true},
	}
	for _, r := range want {
		if err := appendOne(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, recovered, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recovered), len(want))
	}
	for i, r := range recovered {
		if !bytes.Equal(r.Key, want[i].Key) || r.Version != want[i].Version || r.Tombstone != want[i].Tombstone {
			t.Errorf("record %d: got %+v want %+v", i, r, want[i])
		}
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, &Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := appendOne(l, rec(fmt.Sprintf("key-%03d", i), "some-payload-data", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if n := segmentCount(t, l); n < 2 {
		t.Fatalf("expected multiple segments, got %d", n)
	}
	l.Close()

	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 50 {
		t.Fatalf("recovered %d records across segments, want 50", len(recovered))
	}
	for i, r := range recovered {
		if want := fmt.Sprintf("key-%03d", i); string(r.Key) != want {
			t.Fatalf("record %d out of order: %q", i, r.Key)
		}
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendOne(l, rec(fmt.Sprintf("k%d", i), "v", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-append: truncate the last few bytes of the
	// logical data (segments are preallocated, so the file's tail is
	// zero padding — the torn frame must cut into the final record).
	seg := filepath.Join(dir, "000000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	tail := validTail(data)
	if tail == 0 {
		t.Fatal("segment holds no decodable records")
	}
	if err := os.Truncate(seg, tail-3); err != nil {
		t.Fatal(err)
	}

	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(recovered))
	}
}

func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendOne(l, rec(fmt.Sprintf("k%d", i), "v", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	keep, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(t, l); n != 1 {
		t.Fatalf("after truncate: %d segments, want 1", n)
	}
	l.Close()

	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %d records after truncate, want 0", len(recovered))
	}
}

func TestClosedLogErrors(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := appendOne(l, rec("k", "v", 1)); err != ErrClosed {
		t.Fatalf("Append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.wal"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered %d records from foreign files", len(recovered))
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, &Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, perWriter = 4, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := appendOne(l, rec(fmt.Sprintf("w%d-%03d", w, i), "v", uint64(i+1))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != writers*perWriter {
		t.Fatalf("recovered %d, want %d", len(recovered), writers*perWriter)
	}
}

func TestAppendBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var batch []record.Record
	for i := 0; i < 10; i++ {
		batch = append(batch, rec(fmt.Sprintf("k%02d", i), "v", uint64(i+1)))
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	st := l.Stats()
	if st.Appends != 10 {
		t.Fatalf("appends = %d, want 10", st.Appends)
	}
	l.Close()

	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recovered))
	}
	for i, r := range recovered {
		if want := fmt.Sprintf("k%02d", i); string(r.Key) != want {
			t.Fatalf("record %d: key %q, want %q", i, r.Key, want)
		}
	}
}

// TestAppendGroupConcurrent drives many concurrent durable writers
// through the group-commit path: every record must survive recovery
// and the group accounting must balance.
func TestAppendGroupConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.AppendGroup(rec(fmt.Sprintf("w%d-%03d", w, i), "v", uint64(w*perWriter+i+1))); err != nil {
					t.Errorf("append group: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Grouped != writers*perWriter {
		t.Fatalf("grouped writers = %d, want %d", st.Grouped, writers*perWriter)
	}
	if st.Groups == 0 || st.Groups > st.Grouped {
		t.Fatalf("groups = %d, grouped = %d: inconsistent", st.Groups, st.Grouped)
	}
	if st.Syncs > st.Appends {
		t.Fatalf("syncs = %d exceeds appends = %d", st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends, %d fsyncs (%.1f writers/fsync)",
		st.Appends, st.Syncs, float64(st.Grouped)/float64(st.Groups))
	l.Close()

	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != writers*perWriter {
		t.Fatalf("recovered %d, want %d", len(recovered), writers*perWriter)
	}
}

// TestGroupCommitCoalesces proves the fsync-sharing property
// deterministically: while the leader is parked before its group
// fsync, later committers pile into the waiter queue and must all be
// flushed by one further fsync.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const followers = 5
	release := make(chan struct{})
	var parked sync.Once
	l.testHookBeforeGroupSync = func() {
		parked.Do(func() { <-release })
	}

	leaderDone := make(chan error, 1)
	go func() { leaderDone <- l.AppendGroup(rec("leader", "v", 1)) }()

	// Wait until the leader is parked in the hook, then pile on
	// followers and wait until they are all queued.
	waitQueued := func(n int) {
		for i := 0; i < 2000; i++ {
			l.syncMu.Lock()
			queued := len(l.syncWaiters)
			l.syncMu.Unlock()
			if queued >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %d queued waiters", n)
	}

	followerDone := make(chan error, followers)
	go func() {
		// The leader drains its own entry from the queue before the
		// hook runs, so the queue is empty while it is parked.
		for w := 0; w < followers; w++ {
			go func(w int) {
				followerDone <- l.AppendGroup(rec(fmt.Sprintf("f%d", w), "v", uint64(w+2)))
			}(w)
		}
	}()
	waitQueued(followers)
	close(release)

	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	for w := 0; w < followers; w++ {
		if err := <-followerDone; err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Groups != 2 {
		t.Fatalf("groups = %d, want 2 (leader alone, then all followers together)", st.Groups)
	}
	if st.Grouped != followers+1 {
		t.Fatalf("grouped = %d, want %d", st.Grouped, followers+1)
	}
	if st.Syncs != 2 {
		t.Fatalf("syncs = %d, want 2: %d committers shared 2 fsyncs", st.Syncs, followers+1)
	}
}

func TestSyncGroupClosed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.SyncGroup(); err != ErrClosed {
		t.Fatalf("SyncGroup on closed log: %v, want ErrClosed", err)
	}
	if err := l.AppendGroup(rec("k", "v", 1)); err != ErrClosed {
		t.Fatalf("AppendGroup on closed log: %v, want ErrClosed", err)
	}
}

func BenchmarkAppend(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := rec("user:12345:profile", string(bytes.Repeat([]byte("x"), 256)), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Version = uint64(i + 1)
		if err := appendOne(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

// A Truncate removes only what was appended before its Rotate: records
// appended while a flush runs stay, even once the log has rolled past
// the segment the Rotate opened.
func TestTruncateKeepsSegmentsRolledAfterRotate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, &Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendOne(l, rec("before", "v", 1)); err != nil {
		t.Fatal(err)
	}
	keep, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // rolls several times
		if err := appendOne(l, rec(fmt.Sprintf("after-%02d", i), "v", uint64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recovered, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 20 || string(recovered[0].Key) != "after-00" {
		t.Fatalf("recovered %d records after truncate, want the 20 appended after the rotate", len(recovered))
	}
}

// A roll that cannot open the next segment leaves the log appending to
// the active one.
func TestFailedRollKeepsLogUsable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendOne(l, rec("a", "1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate without a log directory reported no error")
	}
	if err := appendOne(l, rec("b", "2", 2)); err != nil {
		t.Fatalf("append after a failed roll: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after a failed roll: %v", err)
	}
}

// Segment creation and removal must be made durable with a directory
// fsync, or a crash can lose a freshly created segment's dirent (losing
// acked writes) or resurrect truncated segments (replaying records the
// engine already considers gone).
func TestDirectoryFsyncOnSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	base := l.Stats().DirSyncs
	if base < 1 {
		t.Fatalf("Open created segment 1 with no directory fsync (DirSyncs = %d)", base)
	}
	if err := appendOne(l, rec("a", "1", 1)); err != nil {
		t.Fatal(err)
	}
	keep, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	afterRotate := l.Stats().DirSyncs
	if afterRotate <= base {
		t.Fatalf("Rotate created a segment with no directory fsync (DirSyncs %d -> %d)", base, afterRotate)
	}
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	afterTruncate := l.Stats().DirSyncs
	if afterTruncate <= afterRotate {
		t.Fatalf("Truncate removed segments with no directory fsync (DirSyncs %d -> %d)", afterRotate, afterTruncate)
	}
	// A Truncate with nothing to remove must not pay for a sync.
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().DirSyncs; got != afterTruncate {
		t.Fatalf("no-op Truncate issued a directory fsync (DirSyncs %d -> %d)", afterTruncate, got)
	}
}

// Preallocated segments must still recover cleanly: the zero padding
// past the logical tail terminates replay without corrupting records.
func TestPreallocatedSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, &Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendOne(l, rec(fmt.Sprintf("k%02d", i), "v", uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 64<<10 {
		t.Fatalf("segment size = %d, want preallocated 64 KiB", st.Size())
	}
	_, recovered, err := Open(dir, &Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 10 {
		t.Fatalf("recovered %d records from preallocated segment, want 10", len(recovered))
	}
}
