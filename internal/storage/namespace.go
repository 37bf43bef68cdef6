package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"

	"scads/internal/memtable"
	"scads/internal/record"
	"scads/internal/sstable"
	"scads/internal/wal"
)

// Namespace is one ordered keyspace inside an Engine. All methods are
// safe for concurrent use.
type Namespace struct {
	name   string
	engine *Engine
	dir    string // "" when in-memory

	mu       sync.RWMutex
	mem      *memtable.Memtable
	flushing *memtable.Memtable // read-only during flush, else nil
	tables   []*sstable.Reader  // newest first; replaced, never modified in place
	log      *wal.Log           // nil when in-memory
	tableSeq uint64
	closed   bool

	// Apply-sequence watermark for online range migration: every
	// accepted record gets the next applySeq, and the (seq, key) pairs
	// of the most recent maxApplyLog accepted records are retained so
	// ScanSince can serve "what changed after watermark W" delta
	// queries. applyEpoch distinguishes process lifetimes — the log is
	// in-memory, so a watermark issued before a restart must not be
	// mistaken for a valid baseline afterwards.
	applyEpoch uint64
	applySeq   uint64
	applyFloor uint64       // highest seq no longer retained; log covers (floor, seq]
	applyLog   []applyEntry // in seq order: ScanSince searches it

	// maxVersion is the highest record version accepted this process
	// lifetime — a globally comparable freshness signal (versions are
	// coordinator HLC stamps), probed by the repair manager to rank
	// surviving replicas during primary failover. Not persisted: a
	// restarted node reports a conservative value until it takes
	// writes again.
	maxVersion uint64

	// excluded records pending range truncations per SSTable: reads
	// treat matching records as absent until the next compaction
	// rewrites the tables without them (see TruncateRange).
	excluded map[*sstable.Reader][]keyRange

	// flushedFloor is, per table flushed this process lifetime, the
	// lowest version its memtable took in (see unmergedFloor); a table
	// that is not in it may hold any version.
	flushedFloor map[*sstable.Reader]uint64

	// bgErr is the first failure of a background flush or tier merge
	// (see compaction.go), surfaced on the next Flush or close.
	bgErr error

	compactMu sync.Mutex // serialises flushes, tier picks and major compactions
}

type keyRange struct {
	start, end []byte // start inclusive (nil = -inf), end exclusive (nil = +inf)
}

func (r keyRange) contains(key []byte) bool {
	if r.start != nil && bytes.Compare(key, r.start) < 0 {
		return false
	}
	if r.end != nil && bytes.Compare(key, r.end) >= 0 {
		return false
	}
	return true
}

// inAny reports whether key falls in one of ranges.
func inAny(ranges []keyRange, key []byte) bool {
	for _, r := range ranges {
		if r.contains(key) {
			return true
		}
	}
	return false
}

type applyEntry struct {
	seq uint64
	key []byte
}

// maxApplyLog bounds the per-namespace delta log. When the log
// overflows, the oldest half is discarded and applyFloor advances;
// a ScanSince watermark older than the floor reports ok=false and the
// caller must restart from a fresh snapshot.
const maxApplyLog = 1 << 16

// Put stores value under key with a freshly generated version and
// returns that version.
func (ns *Namespace) Put(key, value []byte) (uint64, error) {
	return ns.write(record.Record{Key: bytes.Clone(key), Value: bytes.Clone(value)})
}

// Delete writes a tombstone for key with a fresh version and returns
// that version.
func (ns *Namespace) Delete(key []byte) (uint64, error) {
	return ns.write(record.Record{Key: bytes.Clone(key), Tombstone: true})
}

// write stamps rec with a fresh version and applies it.
func (ns *Namespace) write(rec record.Record) (uint64, error) {
	rec.Version = ns.engine.NextVersion()
	if err := ns.Apply(rec); err != nil {
		return 0, err
	}
	return rec.Version, nil
}

// Apply lands an externally versioned record (for example one arriving
// through replication); see ApplyBatch.
func (ns *Namespace) Apply(rec record.Record) error {
	return ns.ApplyBatch([]record.Record{rec})
}

// ApplyBatch lands a group of externally versioned records: one lock
// acquisition, one WAL write for the whole group, and — when the
// engine runs with SyncWrites — one group-commit fsync shared with
// every other writer committing concurrently. This is the landing
// point of multi-record MethodApply requests.
//
// The apply is blind: it reads nothing below the memtable. A record
// counts as accepted — it gets an apply-log entry and watermark step
// and raises MaxVersion — when memtable.Put stores it, that is unless
// the memtable itself already holds a superseding version of the key.
// A record older than one already flushed is stored all the same and
// loses wherever it is read: point gets compare every layer by version,
// and scans, flushes and compactions go through sstable.MergeIter,
// which keeps the superseding record of each key whichever table holds
// it. Last-write-wins is
// resolved by readers and merges, never by Apply. What keeps that true
// of a put stored above the tombstone that deletes it is the merge
// that drops tombstones: it leaves in every tombstone a record outside
// it might be older than (see installTable), so the tombstone is there
// to lose to until the put has been merged with it.
func (ns *Namespace) ApplyBatch(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return ErrClosed
	}
	if ns.log != nil {
		if err := ns.log.AppendBatch(recs); err != nil {
			ns.mu.Unlock()
			return err
		}
	}
	for _, rec := range recs {
		if !ns.mem.Put(rec) {
			continue
		}
		ns.applySeq++
		ns.applyLog = append(ns.applyLog, applyEntry{seq: ns.applySeq, key: rec.Key})
		if rec.Version > ns.maxVersion {
			ns.maxVersion = rec.Version
		}
	}
	if len(ns.applyLog) > maxApplyLog {
		half := len(ns.applyLog) / 2
		ns.applyFloor = ns.applyLog[half-1].seq
		// Shift in place: a fresh array would be regrown by append.
		n := copy(ns.applyLog, ns.applyLog[half:])
		clear(ns.applyLog[n:]) // the moved-out entries' keys, for the GC
		ns.applyLog = ns.applyLog[:n]
	}
	full := ns.dir != "" && ns.mem.Bytes() >= ns.engine.opts.MemtableBytes
	ns.mu.Unlock()

	// Durability outside the namespace lock: the fsync is shared via
	// the WAL's commit group, so concurrent writers to this namespace
	// pay one sync per group instead of one each.
	if ns.log != nil && ns.engine.opts.SyncWrites {
		if err := ns.log.SyncGroup(); err != nil {
			return err
		}
	}
	if full {
		// The write is acknowledged on its own WAL append; the flush is
		// the flusher's.
		select {
		case ns.engine.flushWake <- struct{}{}:
		default:
		}
	}
	return nil
}

// GetRecord returns the current record for key, including tombstones.
// The record shares the engine's memory (a memtable entry or a table
// block); callers must not modify it.
func (ns *Namespace) GetRecord(key []byte) (record.Record, bool, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if ns.closed {
		return record.Record{}, false, ErrClosed
	}
	rec, ok := ns.getLocked(key)
	return rec, ok, nil
}

// Get returns the live value for key; deleted and absent keys report
// ok=false.
func (ns *Namespace) Get(key []byte) ([]byte, bool, error) {
	rec, ok, err := ns.GetRecord(key)
	if err != nil || !ok || rec.Tombstone {
		return nil, false, err
	}
	return rec.Value, true, nil
}

// getLocked resolves key across memtable, flushing memtable, and
// SSTables under last-write-wins. Caller holds ns.mu (read or write).
func (ns *Namespace) getLocked(key []byte) (record.Record, bool) {
	var best record.Record
	found := false
	consider := func(r record.Record, ok bool) {
		if !ok {
			return
		}
		if !found || r.Supersedes(best) {
			best, found = r, true
		}
	}
	consider(ns.mem.Get(key))
	if ns.flushing != nil {
		consider(ns.flushing.Get(key))
	}
	for _, t := range ns.tables {
		if inAny(ns.excluded[t], key) {
			continue // pending truncation of t
		}
		r, ok, err := t.Get(key)
		if err == nil {
			consider(r, ok)
		}
	}
	return best, found
}

// ScanLive visits live (non-tombstone) records with start <= key < end
// in ascending key order until fn returns false or the range is
// exhausted. This is the engine's only read path besides point gets —
// callers are responsible for bounding the range (the analyzer
// guarantees every query plan does). The record passed to fn is valid
// only until fn returns: it may alias a pooled block, so fn copies
// what it keeps.
func (ns *Namespace) ScanLive(start, end []byte, fn func(record.Record) bool) error {
	return ns.scan(start, end, true, fn)
}

// ScanAll visits records including tombstones; used by replication
// catch-up and partition moves. As with ScanLive, a record is valid
// only until fn returns.
func (ns *Namespace) ScanAll(start, end []byte, fn func(record.Record) bool) error {
	return ns.scan(start, end, false, fn)
}

// ApplyWatermark returns the namespace's apply epoch and the sequence
// number of the most recently accepted record. A migration captures
// the watermark before taking its snapshot; ScanSince then serves
// exactly the records accepted after it.
func (ns *Namespace) ApplyWatermark() (epoch, seq uint64) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.applyEpoch, ns.applySeq
}

// MaxVersion returns the highest record version accepted this process
// lifetime. Record versions are coordinator HLC stamps, so the value
// is comparable across nodes: during primary failover the repair
// manager probes each surviving replica's MaxVersion and promotes the
// freshest. A freshly restarted node reports 0 (conservative: it ranks
// last) until it accepts a write.
func (ns *Namespace) MaxVersion() uint64 {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.maxVersion
}

// ScanSince streams to fn the current record (tombstones included) of
// every key in [start, end) modified after watermark `since`, once per
// key, in apply order, until fn returns false or the retained log is
// walked. It returns the watermark covering every record fn took: a
// record fn refuses stays beyond it, so a call from the returned
// watermark resumes there. ok=false means the baseline is unusable —
// wrong epoch (the node restarted) or older than the retained delta log
// — and the caller must restart from a full snapshot. As with ScanAll,
// a record is valid only until fn returns; fn runs under the
// namespace's read lock and must not call back into the namespace.
func (ns *Namespace) ScanSince(epoch, since uint64, start, end []byte, fn func(record.Record) bool) (watermark uint64, ok bool, err error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if ns.closed {
		return 0, false, ErrClosed
	}
	if epoch != ns.applyEpoch || since > ns.applySeq || since < ns.applyFloor {
		return 0, false, nil
	}
	bounds := keyRange{start: start, end: end}
	watermark = since
	seen := make(map[string]bool)
	first, _ := slices.BinarySearchFunc(ns.applyLog, since+1, func(e applyEntry, seq uint64) int { return cmp.Compare(e.seq, seq) })
	for _, e := range ns.applyLog[first:] {
		// An entry out of range, or of a key already sent, has nothing
		// new to send; the watermark still advances past it.
		if bounds.contains(e.key) && !seen[string(e.key)] {
			if rec, found := ns.getLocked(e.key); found && !fn(rec) {
				break
			}
			seen[string(e.key)] = true
		}
		watermark = e.seq
	}
	return watermark, true, nil
}

// scan streams the last-write-wins merge of the whole stack over
// [start, end) to fn. The memtables are copied and the tables pinned
// under the read lock; table blocks are read after it is released, one
// at a time as the merge advances, so a scan that fn stops early reads
// no further. What the merge runs on is pooled (scanState), so a scan
// allocates only what fn keeps.
func (ns *Namespace) scan(start, end []byte, live bool, fn func(record.Record) bool) error {
	st := scanStates.Get().(*scanState)
	ns.mu.RLock()
	if ns.closed {
		ns.mu.RUnlock()
		scanStates.Put(st)
		return ErrClosed
	}
	st.mem = snapshotRange(st.mem, ns.mem, start, end)
	st.sources = append(st.sources, sstable.Slice(st.mem))
	if ns.flushing != nil {
		st.flushing = snapshotRange(st.flushing, ns.flushing, start, end)
		st.sources = append(st.sources, sstable.Slice(st.flushing))
	}
	// The stack is replaced, never modified in place, so the slice
	// stays what it is once the lock is released.
	tables := ns.tables
	opts := sstable.MergeOptions{DropTombstones: live, Drop: ns.dropExcluded(tables, len(st.sources))}
	// Pin the tables: a background tier merge may splice them out and
	// unlink their files while we stream blocks below. The references
	// keep the files open (and on disk) until released.
	for _, t := range tables {
		t.Retain()
		st.sources = append(st.sources, t.Range(start, end, true))
	}
	ns.mu.RUnlock()
	defer st.release(tables)

	it := &st.it
	it.Reset(opts, st.sources...)
	for rec, ok := it.Next(); ok && fn(rec); rec, ok = it.Next() {
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("storage: scan table: %w", err)
	}
	return nil
}

// scanState is what one scan merges through: the memtable snapshots,
// the merge's sources and the merge itself. It is pooled and empty
// between scans.
type scanState struct {
	mem, flushing []record.Record
	sources       []sstable.Source
	it            sstable.MergeIter
}

var scanStates = sync.Pool{New: func() any { return new(scanState) }}

// release ends the scan st served: it gives back the merge's borrowed
// blocks, unpins tables, drops every reference st holds and returns st
// to the pool.
func (st *scanState) release(tables []*sstable.Reader) {
	st.it.Close()
	for _, t := range tables {
		t.Release()
	}
	clear(st.mem)
	clear(st.flushing)
	clear(st.sources)
	st.mem, st.flushing, st.sources = st.mem[:0], st.flushing[:0], st.sources[:0]
	scanStates.Put(st)
}

// dropExcluded returns the merge Drop hook that hides the pending
// truncations of tables, where tables[i] is merge source first+i; nil
// when there are none. Caller holds ns.mu; the hook may outlive it
// (exclusion lists are only ever appended to).
func (ns *Namespace) dropExcluded(tables []*sstable.Reader, first int) func(int, record.Record) bool {
	var excl [][]keyRange
	for i, t := range tables {
		if rs := ns.excluded[t]; len(rs) > 0 {
			if excl == nil {
				excl = make([][]keyRange, first+len(tables))
			}
			excl[first+i] = rs
		}
	}
	if excl == nil {
		return nil
	}
	return func(src int, rec record.Record) bool { return inAny(excl[src], rec.Key) }
}

// snapshotRange appends m's records with start <= key < end to out.
func snapshotRange(out []record.Record, m *memtable.Memtable, start, end []byte) []record.Record {
	m.Scan(start, end, func(r record.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Flush persists the current memtable to a new SSTable and truncates
// the WAL, before it returns. No-op for in-memory namespaces and empty
// memtables. A pending failure of a background flush or merge is
// surfaced here (writes keep succeeding into the memtable, but the
// condition must not stay silent).
func (ns *Namespace) Flush() error {
	ns.compactMu.Lock()
	defer ns.compactMu.Unlock()
	if err := ns.flushLocked(); err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	err := ns.bgErr
	ns.bgErr = nil
	return err
}

func (ns *Namespace) flushLocked() error {
	if ns.dir == "" {
		return nil
	}
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return ErrClosed
	}
	// Roll the log first: if that fails, the memtable stays where it
	// is. An empty memtable leaves nothing to write, only segments to
	// drop: records already flushed, or truncated away.
	keep, err := ns.log.Rotate()
	if err != nil || ns.mem.Len() == 0 {
		ns.mu.Unlock()
		if err != nil {
			return err
		}
		return ns.log.Truncate(keep)
	}
	// Swap in a fresh memtable; the old one stays readable via
	// ns.flushing while we write it out.
	frozen := ns.mem
	ns.flushing = frozen
	ns.mem = memtable.New(int64(ns.engine.opts.NodeID) + int64(ns.tableSeq) + 2)
	seq := ns.tableSeq
	ns.tableSeq++
	ns.mu.Unlock()

	if err := ns.installTable(seq, sstable.MergeOptions{}, nil, frozen); err != nil {
		// Merge the frozen entries back so no write is lost.
		ns.mu.Lock()
		for _, rec := range frozen.All() {
			ns.mem.Put(rec)
		}
		ns.flushing = nil
		ns.mu.Unlock()
		return err
	}
	// The flushed data is durable; the segments before the rotation are
	// obsolete. Those written since hold the new memtable and stay.
	if err := ns.log.Truncate(keep); err != nil {
		return err
	}
	if ns.TableCount() > ns.engine.opts.MaxTables {
		ns.engine.wakeCompactor()
	}
	return nil
}

// installTable writes table seq as the merge of the frozen memtable (a
// flush) or of old, a contiguous run of the stack (a compaction), and
// splices it in where its inputs were: on top, retiring the frozen
// memtable, or in place of the run, whose pending truncations the merge
// applied and whose files it removes. Every table the namespace creates
// comes from here. The caller holds compactMu or is the compactor, so
// nothing else consumes the inputs meanwhile.
//
// With opts.DropTombstones, old is the whole table stack, but not all
// the namespace holds: applies are blind, so a memtable — or a table
// flushed while the merge runs — may hold a put older than a tombstone
// in old, which would come back to life once the tombstone is gone. The
// merge therefore drops only the tombstones below unmergedFloor, and if
// by the time it is done something at or below a tombstone it dropped
// has arrived after all, the table is written again with its tombstones
// left in.
func (ns *Namespace) installTable(seq uint64, opts sstable.MergeOptions, old []*sstable.Reader, frozen *memtable.Memtable) error {
	sources := make([]sstable.Source, 0, 1+len(old))
	if frozen != nil {
		sources = append(sources, sstable.Slice(frozen.All()))
	}
	var dropped, maxDropped uint64 // tombstones left out, and the highest version among them
	ns.mu.RLock()
	opts.Drop = ns.dropExcluded(old, len(sources))
	if opts.DropTombstones {
		floor := ns.unmergedFloor(0)
		opts.KeepTombstone = func(rec record.Record) bool {
			if rec.Version >= floor {
				return true
			}
			dropped++
			maxDropped = max(maxDropped, rec.Version)
			return false
		}
	}
	ns.mu.RUnlock()
	for _, t := range old {
		sources = append(sources, t.Range(nil, nil, false))
	}
	rd, err := sstable.Merge(ns.tablePath(seq), opts, sources...)
	if err != nil {
		return err
	}
	ns.engine.cached(rd)

	ns.mu.Lock()
	i := 0
	if len(old) > 0 {
		i = slices.Index(ns.tables, old[0])
	}
	if i < 0 || i+len(old) > len(ns.tables) {
		// The run vanished from the stack — cannot happen while its
		// merge is the one in flight, but fail safe rather than corrupt
		// the stack: drop the merge output and walk away.
		ns.mu.Unlock()
		return rd.Remove()
	}
	if dropped > 0 && ns.unmergedFloor(i) <= maxDropped {
		ns.mu.Unlock()
		if err := rd.Remove(); err != nil {
			return err
		}
		opts.DropTombstones, opts.KeepTombstone = false, nil
		return ns.installTable(seq, opts, old, frozen)
	}
	stack := make([]*sstable.Reader, 0, len(ns.tables)-len(old)+1)
	stack = append(append(append(stack, ns.tables[:i]...), rd), ns.tables[i+len(old):]...)
	ns.tables = stack
	if frozen != nil {
		ns.flushing = nil
		if ns.flushedFloor == nil {
			ns.flushedFloor = make(map[*sstable.Reader]uint64)
		}
		ns.flushedFloor[rd] = frozen.MinVersion()
	}
	for _, t := range old {
		delete(ns.excluded, t)
		delete(ns.flushedFloor, t)
	}
	ns.mu.Unlock()

	var firstErr error
	for _, t := range old {
		if err := t.Remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// unmergedFloor returns a lower bound on the version of every record
// held above ns.tables[above:]: in the memtable, in the one being
// flushed and in the tables before index above. Caller holds ns.mu.
func (ns *Namespace) unmergedFloor(above int) uint64 {
	floor := ns.mem.MinVersion()
	if ns.flushing != nil {
		floor = min(floor, ns.flushing.MinVersion())
	}
	for _, t := range ns.tables[:above] {
		floor = min(floor, ns.flushedFloor[t])
	}
	return floor
}

// TruncateRange physically removes every record with start <= key <
// end (nil bounds are infinite) and returns how many were unlinked
// from the memtable. Matching memtable entries are unlinked, matching
// SSTable records become invisible immediately (per-table exclusions)
// and are rewritten out by the compaction this triggers, and the WAL
// is reset past the truncated records. Unlike tombstoning, nothing
// versioned survives: if the range is later re-installed by a
// migration, the incoming records land on clean state instead of
// losing last-write-wins to teardown markers.
func (ns *Namespace) TruncateRange(start, end []byte) (int, error) {
	ns.compactMu.Lock()
	defer ns.compactMu.Unlock()
	// Stop the tier merge in flight before installing exclusions: a
	// merge selected before the exclusion existed would splice in an
	// output that still contains the truncated records while deleting
	// the consumed tables' exclusion entries — resurrecting the range.
	ns.cancelTierMerge()
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return 0, ErrClosed
	}
	// compactMu is held, so no flush is in flight and ns.flushing is
	// nil: the memtable unlink covers all unflushed state.
	removed := ns.mem.DeleteRange(start, end)
	excl := keyRange{start: bytes.Clone(start), end: bytes.Clone(end)}
	hasTables := len(ns.tables) > 0
	for _, t := range ns.tables {
		if ns.excluded == nil {
			ns.excluded = make(map[*sstable.Reader][]keyRange)
		}
		ns.excluded[t] = append(ns.excluded[t], excl)
	}
	ns.mu.Unlock()

	if ns.dir == "" {
		return removed, nil
	}
	// The WAL still holds the truncated records; the flush resets it
	// past them, so recovery cannot resurrect them, and gives the
	// surviving memtable entries a durable home first. Writes accepted
	// meanwhile land in segments the flush keeps.
	if err := ns.flushLocked(); err != nil {
		return removed, err
	}
	if hasTables {
		// Rewrite the tables without the excluded records now, so the
		// truncation is durable rather than pending in memory.
		return removed, ns.compactLocked()
	}
	return removed, nil
}

// compactLocked is the major compaction: it merges the whole stack into
// one table without tombstones or truncated records, unthrottled (it
// sits on the critical path of migration teardown). Caller holds
// compactMu.
func (ns *Namespace) compactLocked() error {
	// A tier merge in flight holds part of the stack; stop it first (it
	// polls for cancellation between records, so this is bounded by one
	// poll interval, not by a merge's full runtime).
	ns.cancelTierMerge()
	ns.mu.Lock()
	tables := ns.tables
	seq := ns.tableSeq
	// A lone table with nothing truncated is already compact.
	idle := len(tables) == 0 || (len(tables) == 1 && len(ns.excluded[tables[0]]) == 0)
	if !idle {
		ns.tableSeq++
	}
	ns.mu.Unlock()
	if idle {
		return nil
	}
	if err := ns.installTable(seq, sstable.MergeOptions{DropTombstones: true}, tables, nil); err != nil {
		return fmt.Errorf("storage: compact %s: %w", ns.name, err)
	}
	return nil
}

// TableCount reports how many SSTables the namespace currently holds.
func (ns *Namespace) TableCount() int {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return len(ns.tables)
}

func (ns *Namespace) tablePath(seq uint64) string {
	return fmt.Sprintf("%s/%09d.sst", ns.dir, seq)
}

// close flushes and closes the namespace once the engine's workers are
// joined. A failed flush does not stop the close; its error is returned
// first, then any background failure.
func (ns *Namespace) close() error {
	ns.compactMu.Lock()
	defer ns.compactMu.Unlock()
	firstErr := ns.flushLocked()
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return nil
	}
	ns.closed = true
	if firstErr == nil {
		firstErr = ns.bgErr
	}
	ns.bgErr = nil
	if ns.log != nil {
		if err := ns.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, t := range ns.tables {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
