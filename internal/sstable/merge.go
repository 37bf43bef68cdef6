package sstable

import (
	"bytes"
	"container/heap"
	"errors"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

// ErrMergeCanceled is the error of a merge whose MergeOptions.Cancel
// was closed; Merge removes the partially written output.
var ErrMergeCanceled = errors.New("sstable: merge canceled")

// MergeOptions configure a merge: a scan or a compaction.
type MergeOptions struct {
	// DropTombstones removes deletion markers from the output. In a
	// compaction it is only safe for a full (major) one, where no older
	// table could still hold a value the tombstone shadows; a scan of
	// the whole stack sets it to see live records only.
	DropTombstones bool
	// KeepTombstone, when set, is asked once about each tombstone
	// DropTombstones is about to remove, and one it returns true for
	// stays in the output: the storage engine keeps the tombstones that
	// a record outside the merge might still be shadowed by.
	KeepTombstone func(record.Record) bool
	// Drop, when set, excludes a source record from the merge entirely
	// (before conflict resolution, as if the source never held it). src
	// is the index into the sources slice. The storage engine uses this
	// to hide pending range truncations from scans and to resolve them
	// at compaction time.
	Drop func(src int, rec record.Record) bool
	// RateLimitBytesPerSec throttles the merge's input byte rate so a
	// background compaction cannot monopolise the disk while
	// latency-sensitive work (a migration fence handoff, foreground
	// reads) is in flight. 0 means unlimited.
	RateLimitBytesPerSec int64
	// Clock paces the rate limiter; nil selects the real clock. Tests
	// inject a virtual clock to assert pacing deterministically.
	Clock clock.Clock
	// Cancel, once closed, aborts the merge with ErrMergeCanceled: it is
	// polled between records and wakes the rate limiter's sleep. The
	// storage engine cancels background tier merges when a major
	// compaction or teardown needs the table set to itself.
	Cancel <-chan struct{}
}

// Source is one sorted input of a MergeIter: a key range of a table,
// read one block at a time, or a sorted slice held in memory.
type Source struct {
	cur  record.Record   // the current record, once next has reported true
	recs []record.Record // a slice source's records
	blk  Block           // a table source's current block
	buf  *blockBuf       // blk's memory when it is borrowed, else nil
	pos  int             // the next record of recs or blk
	lim  int             // the end of recs, or of blk's in-range records
	idx  int             // position among the merge's sources; lower is newer

	r          *Reader // nil for a slice
	block      int     // next block to read
	start, end []byte
	cached     bool
}

// Slice returns a Source over recs, which must be in ascending key
// order.
func Slice(recs []record.Record) Source { return Source{recs: recs, lim: len(recs)} }

// Range returns a Source over the records of r with start <= key < end
// (a nil bound is open). cached reads go through the attached block
// cache, for foreground scans; a compaction is a one-shot sequential
// sweep and passes false so that it cannot wash hot blocks out of the
// shared cache. A block no cache keeps is borrowed from a pool. No
// block is read until the source is merged.
func (r *Reader) Range(start, end []byte, cached bool) Source {
	s := Source{r: r, start: start, end: end, cached: cached}
	if start != nil {
		s.block = r.blockFor(start)
	}
	return s
}

// next makes cur the source's next record, reading blocks as needed,
// and reports false once the source is exhausted. A table source
// decodes each record it visits from its block's checked bytes. A
// borrowed block the source moves past goes on retired: a record the
// merge holds may still alias it.
func (s *Source) next(retired *[]*blockBuf) (bool, error) {
	for s.pos >= s.lim {
		if s.buf != nil {
			*retired = append(*retired, s.buf)
			s.blk, s.buf = Block{}, nil
		}
		if s.r == nil || s.block >= len(s.r.index) {
			return false, nil
		}
		b, buf, err := s.r.loadBlock(s.block, s.cached)
		if err != nil {
			return false, err
		}
		s.blk, s.buf = b, buf
		s.block++
		var last bool
		s.pos, s.lim, last = b.span(s.start, s.end)
		s.start = nil // later blocks lie past the lower bound
		if last {
			s.block = len(s.r.index)
		}
	}
	if s.r == nil {
		s.cur = s.recs[s.pos]
	} else {
		s.cur = record.DecodeFrame(s.blk.frame(s.pos))
	}
	s.pos++
	return true, nil
}

// MergeIter is the engine's one k-way merge: it yields the records of
// its sources in ascending key order, one per key. When a key appears in
// several sources the last-write-wins version comparison picks the
// record, and equal records resolve to the lower-numbered source —
// sources are ordered newest first, matching the storage engine's
// memtable-then-table stack. Blocks are read only as the iterator
// advances, so a consumer that stops early pays for what it consumed.
//
// A key is resolved whole at the top of the heap before its record is
// returned, so the merge holds no record between calls. A borrowed
// block a source moves past is given back to the pool when the next
// key's resolution starts, by which time no record the merge returned
// or holds can alias it; Close gives back the rest.
type MergeIter struct {
	opts    MergeOptions
	limiter rateLimiter
	srcs    []Source
	heap    sourceHeap  // sources with a current record, least (key, idx) first
	retired []*blockBuf // borrowed blocks sources moved past, not yet given back
	err     error
}

// NewMergeIter returns the merge of sources, which it keeps and
// advances in place.
func NewMergeIter(opts MergeOptions, sources ...Source) *MergeIter {
	m := new(MergeIter)
	m.Reset(opts, sources...)
	return m
}

// Reset makes m the merge of sources, as NewMergeIter does, reusing
// m's memory. A merge that was in use must be Closed first.
func (m *MergeIter) Reset(opts MergeOptions, sources ...Source) {
	*m = MergeIter{
		opts:    opts,
		limiter: newRateLimiter(opts.RateLimitBytesPerSec, opts.Clock),
		srcs:    sources,
		heap:    m.heap[:0],
		retired: m.retired[:0],
	}
	for i := range sources {
		s := &sources[i]
		s.idx = i
		ok, err := s.next(&m.retired)
		if err != nil {
			m.err = err
			return
		}
		if ok {
			m.heap = append(m.heap, s)
		}
	}
	heap.Init(&m.heap)
}

// Next returns the next merged record, or false at the end of the
// merge or on an error, which Err then reports. The record is valid
// only until the next call of Next or Close: it may alias a borrowed
// block.
func (m *MergeIter) Next() (record.Record, bool) {
	for {
		rec, ok := m.winner()
		if !ok || !(m.opts.DropTombstones && rec.Tombstone) {
			return rec, ok
		}
		if m.opts.KeepTombstone != nil && m.opts.KeepTombstone(rec) {
			return rec, true
		}
	}
}

// winner returns the surviving record of the next key, tombstones
// included: it pops every record of the key off the heap and keeps the
// one that supersedes the rest.
func (m *MergeIter) winner() (record.Record, bool) {
	var win record.Record
	have := false
	for m.err == nil && len(m.heap) > 0 {
		s := m.heap[0]
		if have && !bytes.Equal(s.cur.Key, win.Key) {
			break
		}
		if !have {
			m.recycle() // no record of the merge's is held
		}
		if m.opts.Cancel != nil && closed(m.opts.Cancel) {
			m.err = ErrMergeCanceled
			break
		}
		rec := s.cur
		if m.limiter.rate > 0 {
			m.limiter.wait(rec.EncodedSize(), m.opts.Cancel)
		}
		if ok, err := s.next(&m.retired); err != nil {
			m.err = err
			break
		} else if ok {
			heap.Fix(&m.heap, 0)
		} else {
			heap.Pop(&m.heap)
		}
		if m.opts.Drop != nil && m.opts.Drop(s.idx, rec) {
			continue
		}
		// Equal keys arrive newest source first, so a later one
		// replaces the winner only by superseding it.
		if !have || rec.Supersedes(win) {
			win, have = rec, true
		}
	}
	if m.err != nil {
		return record.Record{}, false
	}
	return win, have
}

// recycle gives the retired borrowed blocks back to the pool.
func (m *MergeIter) recycle() {
	for i, buf := range m.retired {
		blockBufs.Put(buf)
		m.retired[i] = nil
	}
	m.retired = m.retired[:0]
}

// Close ends the merge and gives back every block it borrowed: no
// record it returned may be used afterwards. Next then reports false;
// Err still reports what ended the merge.
func (m *MergeIter) Close() {
	m.recycle()
	for i := range m.srcs {
		if s := &m.srcs[i]; s.buf != nil {
			blockBufs.Put(s.buf)
			s.blk, s.buf = Block{}, nil
		}
	}
	clear(m.heap[:cap(m.heap)])
	*m = MergeIter{heap: m.heap[:0], retired: m.retired, err: m.err}
}

// Err returns the error that ended the merge early: a block read
// failure or ErrMergeCanceled.
func (m *MergeIter) Err() error { return m.err }

type sourceHeap []*Source

func (h sourceHeap) Len() int { return len(h) }
func (h sourceHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].cur.Key, h[j].cur.Key)
	if c != 0 {
		return c < 0
	}
	return h[i].idx < h[j].idx
}
func (h sourceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x any)   { *h = append(*h, x.(*Source)) }
func (h *sourceHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// Merge writes the merge of sources as a new table at outPath and opens
// it: the one way a table file comes into being, for a memtable flush
// (one Slice) as for a compaction (the uncached Range of each input
// table, newest first).
func Merge(outPath string, opts MergeOptions, sources ...Source) (*Reader, error) {
	w, err := NewWriter(outPath)
	if err != nil {
		return nil, err
	}
	it := NewMergeIter(opts, sources...)
	defer it.Close()
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		if err := w.Add(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Finish(); err != nil {
		return nil, err
	}
	return Open(outPath)
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// rateLimiter paces a merge to a target byte rate by sleeping whenever
// consumed bytes run ahead of elapsed time. A cancellation ends the
// sleep at once.
type rateLimiter struct {
	rate  int64
	clk   clock.Clock
	start time.Time
	bytes int64
}

func newRateLimiter(rate int64, clk clock.Clock) rateLimiter {
	rl := rateLimiter{rate: rate, clk: clk}
	if rate > 0 {
		if rl.clk == nil {
			rl.clk = clock.NewReal()
		}
		rl.start = rl.clk.Now()
	}
	return rl
}

func (rl *rateLimiter) wait(n int, cancel <-chan struct{}) {
	rl.bytes += int64(n)
	elapsed := rl.clk.Since(rl.start)
	expected := time.Duration(float64(rl.bytes) / float64(rl.rate) * float64(time.Second))
	if expected <= elapsed+time.Millisecond {
		return
	}
	select {
	case <-rl.clk.After(expected - elapsed):
	case <-cancel: // the caller's next poll aborts the merge
	}
}
