// Package wal implements a segmented write-ahead log. Every mutation
// accepted by a SCADS storage node is appended (and optionally synced)
// here before it is acknowledged, providing the single-machine half of
// the paper's durability story (§3.3.1: the durability SLA further
// requires replication, which internal/replication provides on top).
//
// Layout: a log directory contains numbered segment files
// (000000001.wal, 000000002.wal, ...). Each segment is a sequence of
// CRC-framed records (see internal/record). Recovery replays segments
// in order and stops at the first torn frame, which a crashed append
// can legitimately leave behind.
//
// The log offers two append disciplines, from cheapest to most
// durable:
//
//   - AppendBatch: buffered append, fsync'd only at flush boundaries.
//   - AppendGroup: group commit. The record is appended without its
//     own fsync, then the writer joins the current commit group via
//     SyncGroup; one leader issues a single fsync on behalf of every
//     writer waiting at that moment. Under concurrency this collapses
//     N fsyncs into one while giving each writer the same durability
//     guarantee as a private sync. This is the seam the storage
//     engine's synchronous write path (storage.Options.SyncWrites)
//     commits through.
//
// AppendBatch writes a whole record group as one buffered write, which
// storage ApplyBatch uses so a multi-record apply costs one syscall
// instead of one per record.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scads/internal/record"
)

const segmentSuffix = ".wal"

// Options configure a Log.
type Options struct {
	// SegmentBytes rolls to a new segment once the active one exceeds
	// this size. Default 4 MiB.
	SegmentBytes int64
}

func (o *Options) withDefaults() Options {
	out := Options{SegmentBytes: 4 << 20}
	if o != nil {
		if o.SegmentBytes > 0 {
			out.SegmentBytes = o.SegmentBytes
		}
	}
	return out
}

// Log is an append-only write-ahead log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	dirFile   *os.File // directory handle, fsynced on segment create/remove
	active    *os.File
	activeID  uint64
	activeLen int64 // logical tail: bytes appended (segments are preallocated longer)
	closed    bool

	// Group-commit state: writers park on syncWaiters and one leader
	// fsyncs for the whole group (see SyncGroup).
	syncMu      sync.Mutex
	syncWaiters []chan error
	syncLeader  bool

	appends  atomic.Int64 // records appended
	syncs    atomic.Int64 // fsyncs issued through append/sync paths
	groups   atomic.Int64 // commit groups flushed by SyncGroup
	grouped  atomic.Int64 // writers whose durability was covered by a group fsync
	dirSyncs atomic.Int64 // directory fsyncs after segment create/remove

	// testHookBeforeGroupSync, when set, runs in the leader just
	// before each group fsync; tests use it to park the leader so a
	// commit group accumulates deterministically.
	testHookBeforeGroupSync func()
}

// Stats counts append and fsync activity, exposing how much work group
// commit saved: Grouped/Groups is the mean commit-group size.
type Stats struct {
	Appends  int64 // records appended
	Syncs    int64 // fsyncs issued
	Groups   int64 // commit groups flushed by SyncGroup
	Grouped  int64 // writers covered by those group fsyncs
	DirSyncs int64 // directory fsyncs making segment create/remove durable
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:  l.appends.Load(),
		Syncs:    l.syncs.Load(),
		Groups:   l.groups.Load(),
		Grouped:  l.grouped.Load(),
		DirSyncs: l.dirSyncs.Load(),
	}
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Open opens (creating if needed) the log in dir and returns it along
// with all records recovered from existing segments, in append order.
func Open(dir string, opts *Options) (*Log, []record.Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{dir: dir, opts: opts.withDefaults()}
	df, err := os.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open dir: %w", err)
	}
	l.dirFile = df

	ids, err := l.segmentIDs()
	if err != nil {
		df.Close()
		return nil, nil, err
	}
	var recovered []record.Record
	for _, id := range ids {
		recs, err := readSegment(l.segmentPath(id))
		if err != nil {
			df.Close()
			return nil, nil, err
		}
		recovered = append(recovered, recs...)
	}

	nextID := uint64(1)
	if n := len(ids); n > 0 {
		nextID = ids[n-1] + 1
	}
	if err := l.openSegment(nextID); err != nil {
		df.Close()
		return nil, nil, err
	}
	return l, recovered, nil
}

// AppendBatch writes recs as a single buffered write (one syscall for
// the whole group), rolling segments as needed. An empty batch is a
// no-op.
func (l *Log) AppendBatch(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	return l.appendRecords(recs)
}

// AppendGroup appends rec and then makes it durable through the
// group-commit path: the append itself is buffered, and the fsync is
// shared with every other writer concurrently inside SyncGroup. When
// AppendGroup returns nil the record is on stable storage.
func (l *Log) AppendGroup(rec record.Record) error {
	if err := l.appendRecords([]record.Record{rec}); err != nil {
		return err
	}
	return l.SyncGroup()
}

// maxPooledBuf bounds what goes back into encBufPool: a buffer that
// grew past it for one large batch is left for the GC, so the pool does
// not keep its size.
const maxPooledBuf = 1 << 20

// encBufPool recycles the buffers batches are encoded into, so an
// append allocates nothing on the steady path.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func (l *Log) appendRecords(recs []record.Record) error {
	// Encode outside the lock, the whole batch into one pooled buffer,
	// so a batch costs one write(2).
	bp := encBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, rec := range recs {
		buf = rec.AppendBinary(buf)
	}
	err := l.write(buf, len(recs))
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		encBufPool.Put(bp)
	}
	return err
}

// write appends buf, the encoding of n records, to the active segment.
func (l *Log) write(buf []byte, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.active.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.activeLen += int64(len(buf))
	l.appends.Add(int64(n))
	if l.activeLen >= l.opts.SegmentBytes {
		return l.roll()
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.syncs.Add(1)
	return nil
}

// SyncGroup blocks until everything appended before the call is on
// stable storage, sharing the fsync with every writer waiting
// concurrently: the first writer to arrive becomes the leader and
// issues one Sync per parked group, so N concurrent committers cost
// ~1 fsync instead of N. This is the group commit of classical
// databases, applied at the WAL seam so the RPC batch path and
// individual writers amortise durability the same way.
func (l *Log) SyncGroup() error {
	done := make(chan error, 1)
	l.syncMu.Lock()
	l.syncWaiters = append(l.syncWaiters, done)
	if l.syncLeader {
		l.syncMu.Unlock()
		return <-done
	}
	l.syncLeader = true
	l.syncMu.Unlock()

	for {
		l.syncMu.Lock()
		waiters := l.syncWaiters
		l.syncWaiters = nil
		if len(waiters) == 0 {
			l.syncLeader = false
			l.syncMu.Unlock()
			break
		}
		l.syncMu.Unlock()

		if l.testHookBeforeGroupSync != nil {
			l.testHookBeforeGroupSync()
		}
		// Every waiter registered before this Sync started, so their
		// appends (which happened-before registration) are covered.
		err := l.Sync()
		l.groups.Add(1)
		l.grouped.Add(int64(len(waiters)))
		for _, w := range waiters {
			w <- err
		}
	}
	return <-done
}

// Truncate removes every segment before segment keep, the one a Rotate
// returned. The engine calls it once a memtable flush has made durable
// in an SSTable everything appended before that Rotate; segments the
// log has rolled to since then stay.
func (l *Log) Truncate(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	ids, err := l.segmentIDs()
	if err != nil {
		return err
	}
	removed := false
	for _, id := range ids {
		if id >= keep {
			break
		}
		if err := os.Remove(l.segmentPath(id)); err != nil {
			return fmt.Errorf("wal: truncate segment %d: %w", id, err)
		}
		removed = true
	}
	if removed {
		// Make the removals durable: without a directory fsync a crash
		// can bring the unlinked segments back, and recovery would
		// replay records the engine already considers truncated.
		return l.syncDir()
	}
	return nil
}

// Rotate rolls to a fresh segment, unless the active one is still
// empty, and returns its id: a following Truncate of that id removes
// everything appended before the call. Used at flush boundaries.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.activeLen > 0 {
		if err := l.roll(); err != nil {
			return 0, err
		}
	}
	return l.activeID, nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.dirFile != nil {
		l.dirFile.Close()
	}
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return err
	}
	return l.active.Close()
}

// roll opens the next segment before it syncs and closes the active
// one: a segment that cannot be opened leaves the log appending where
// it was.
func (l *Log) roll() error {
	old := l.active
	if err := l.openSegment(l.activeID + 1); err != nil {
		return err
	}
	err := old.Sync()
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment creates a fresh segment file (segment IDs are never
// reused: recovery always starts a new segment past the highest
// existing one). The file is preallocated to SegmentBytes so steady
// appends never grow the inode — the size update would otherwise ride
// along with every fsync — and the write offset starts at 0. Trailing
// preallocated zeroes are harmless to recovery: a zero frame header
// fails validation, terminating replay exactly at the logical tail.
func (l *Log) openSegment(id uint64) error {
	f, err := os.OpenFile(l.segmentPath(id), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", id, err)
	}
	if err := f.Truncate(l.opts.SegmentBytes); err != nil {
		f.Close()
		return fmt.Errorf("wal: preallocate segment %d: %w", id, err)
	}
	// The segment's directory entry must survive a crash: recovery
	// silently skips a segment whose entry was lost, replaying a hole
	// into the middle of the log.
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.active, l.activeID, l.activeLen = f, id, 0
	return nil
}

// syncDir fsyncs the log directory, making segment creates and removes
// durable. Callers hold l.mu.
func (l *Log) syncDir() error {
	if l.dirFile == nil {
		return nil
	}
	if err := l.dirFile.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.dirSyncs.Add(1)
	return nil
}

func (l *Log) segmentPath(id uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%09d%s", id, segmentSuffix))
}

func (l *Log) segmentIDs() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// readSegment decodes records from one segment file. A torn tail
// (truncated final frame or checksum failure at the end) terminates
// recovery of that segment without error: it is the expected signature
// of a crash mid-append.
func readSegment(path string) ([]record.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read segment: %w", err)
	}
	var recs []record.Record
	for len(data) > 0 {
		r, rest, err := record.DecodeBinary(data)
		if err != nil {
			// Torn tail: stop replay here.
			return recs, nil
		}
		recs = append(recs, r)
		data = rest
	}
	return recs, nil
}
