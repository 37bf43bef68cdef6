package storage

import (
	"errors"

	"scads/internal/sstable"
)

// Background work: the flusher and the size-tiered compactor.
//
// A disk engine's flusher wakes when a write leaves a memtable at or
// past Options.MemtableBytes, and flushes every namespace in that
// state; a flush failure is kept in bgErr and the flush is retried at
// the next wake-up. A flush that leaves a namespace over
// Options.MaxTables wakes the compactor, which runs one tier merge at a
// time, throttled by Options.CompactionRateBytes, until no namespace
// has a run left to merge. A tier merge holds no lock while it writes,
// so a flush never waits behind one. A run is a contiguous stretch of
// similar-sized tables ("a tier"): the stack order is the
// last-write-wins tie-break between equal versions, and merging
// non-adjacent tables would reorder it.
//
// Foreground paths that need the table set to themselves —
// TruncateRange (its major compaction rewrites the whole stack) and
// Close — cancel the merge in flight (it polls its stop channel between
// records, and the channel wakes a rate-limited merge's sleep) and wait
// it out, so a merge can never stall a fence handoff for longer than
// one record's merge.

const (
	// tierSizeRatio bounds how dissimilar table sizes within one
	// selected run may be (max/min file size).
	tierSizeRatio = 4
	// maxTierRun caps how many tables one tier merge consumes, keeping
	// individual background merges short and cancellable cheaply.
	maxTierRun = 8
)

// flusher flushes, each time a write wakes it, every namespace whose
// memtable has reached MemtableBytes.
func (e *Engine) flusher() {
	defer e.workers.Done()
	for e.sleep(e.flushWake) {
		for _, ns := range e.open() {
			ns.mu.RLock()
			full := ns.mem.Bytes() >= e.opts.MemtableBytes
			ns.mu.RUnlock()
			if full {
				ns.compactMu.Lock()
				ns.keepBgErr(ns.flushLocked())
				ns.compactMu.Unlock()
			}
		}
	}
}

// compactor runs the due tier merges one at a time each time it is
// woken, and goes idle once a pass finds none and no wake-up is
// pending. A merge failure ends the pass: it is retried at the next
// wake-up.
func (e *Engine) compactor() {
	defer e.workers.Done()
	defer e.endPass(true)
	for e.sleep(e.compactWake) {
		for e.mergeNext() {
		}
		e.endPass(false)
	}
}

// endPass marks the compactor idle, unless it is to run again for a
// wake-up sent during the pass, and wakes WaitCompaction to look.
// After the last pass it is idle for good.
func (e *Engine) endPass(last bool) {
	e.cmu.Lock()
	e.idle = last || len(e.compactWake) == 0
	e.mergeDone.Broadcast()
	e.cmu.Unlock()
}

// sleep waits for a wake-up on wake and reports false once the engine
// stops its workers.
func (e *Engine) sleep(wake chan struct{}) bool {
	select {
	case <-wake:
		return true
	case <-e.stop:
		return false
	}
}

// wakeCompactor marks the compactor busy and wakes it, unless the
// workers are stopped. A wake-up is sent under e.cmu, so the compactor
// sees it before it declares itself idle.
func (e *Engine) wakeCompactor() {
	e.cmu.Lock()
	defer e.cmu.Unlock()
	select {
	case <-e.stop:
	default:
		e.idle = false
		select {
		case e.compactWake <- struct{}{}:
		default:
		}
	}
}

// stopWorkers stops the flusher and the compactor, cancelling the merge
// in flight, and joins them. Nothing is flushed.
func (e *Engine) stopWorkers() {
	if e.stop == nil {
		return
	}
	e.cmu.Lock()
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.cancelMergeLocked()
	e.cmu.Unlock()
	e.workers.Wait()
}

// cancelMergeLocked closes the stop channel of the merge in flight.
// Caller holds e.cmu.
func (e *Engine) cancelMergeLocked() {
	if e.mergeStop != nil {
		close(e.mergeStop)
		e.mergeStop = nil
	}
}

// mergeNext runs the next due tier merge, splices its output into the
// stack and reports whether there was one and it did not fail; a
// failure is kept for the next Flush or Close.
func (e *Engine) mergeNext() bool {
	for _, ns := range e.open() {
		tables, seq, opts := ns.pickTierJob()
		if tables == nil {
			continue
		}
		err := ns.installTable(seq, opts, tables, nil)
		e.cmu.Lock()
		e.merging, e.mergeStop = nil, nil
		e.mergeDone.Broadcast()
		e.cmu.Unlock()
		ns.keepBgErr(err)
		return err == nil || errors.Is(err, sstable.ErrMergeCanceled)
	}
	return false
}

// pickTierJob selects the namespace's next tier run and the options of
// its merge under compactMu (so selection can never race a major
// compaction's whole-stack snapshot), and registers the merge as the
// one in flight. It returns no tables when nothing is due or the
// workers are stopping.
func (ns *Namespace) pickTierJob() ([]*sstable.Reader, uint64, sstable.MergeOptions) {
	ns.compactMu.Lock()
	defer ns.compactMu.Unlock()
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e := ns.engine
	if len(ns.tables) <= e.opts.MaxTables {
		return nil, 0, sstable.MergeOptions{}
	}
	run := pickTierRun(ns.tables)
	e.cmu.Lock()
	defer e.cmu.Unlock()
	select {
	case <-e.stop:
		return nil, 0, sstable.MergeOptions{}
	default:
	}
	e.merging, e.mergeStop = ns, make(chan struct{})
	seq := ns.tableSeq
	ns.tableSeq++
	// The stack is replaced, never modified in place: the run stays as
	// it is.
	return ns.tables[run[0] : run[0]+run[1]], seq, sstable.MergeOptions{
		// Consuming the entire stack makes this a de-facto major merge:
		// no older table can hold a value a dropped tombstone shadows.
		// A memtable, or a table flushed meanwhile, can — Apply stores a
		// put older than a tombstone unread — and installTable keeps the
		// tombstones that could be shadowing one. A put that arrives after
		// its tombstone was dropped still comes back to life, as it always
		// did: tombstones have no grace period here.
		DropTombstones:       run[1] == len(ns.tables),
		RateLimitBytesPerSec: e.opts.CompactionRateBytes,
		Clock:                e.opts.Clock,
		Cancel:               e.mergeStop,
	}
}

// pickTierRun returns {start index, length} of the best contiguous run
// of >=2 tables whose file sizes are within tierSizeRatio of
// each other, preferring the run with the smallest total bytes (the
// cheapest merge first, classic size-tiered policy). If no such run
// exists it falls back to the smallest adjacent pair, so a stack of
// pairwise-dissimilar tables still converges under pressure. Returns
// a zero run when there are fewer than two tables.
func pickTierRun(tables []*sstable.Reader) [2]int {
	bestTotal := int64(-1)
	var best [2]int
	pairTotal := int64(-1)
	var pair [2]int
	for start := 0; start < len(tables)-1; start++ {
		minSz := tables[start].SizeBytes()
		maxSz := minSz
		total := minSz
		for end := start + 1; end < len(tables) && end-start < maxTierRun; end++ {
			sz := tables[end].SizeBytes()
			if end == start+1 {
				if pairTotal < 0 || total+sz < pairTotal {
					pairTotal = total + sz
					pair = [2]int{start, 2}
				}
			}
			minSz, maxSz = min(minSz, sz), max(maxSz, sz)
			if maxSz > minSz*tierSizeRatio {
				break
			}
			total += sz
			if bestTotal < 0 || total < bestTotal || (total == bestTotal && end-start+1 > best[1]) {
				bestTotal = total
				best = [2]int{start, end - start + 1}
			}
		}
	}
	if bestTotal >= 0 {
		return best
	}
	return pair
}

// keepBgErr records err, unless nil or a cancelled merge's, as the
// namespace's background failure if none is pending.
func (ns *Namespace) keepBgErr(err error) {
	if err == nil || errors.Is(err, sstable.ErrMergeCanceled) {
		return
	}
	ns.mu.Lock()
	if ns.bgErr == nil {
		ns.bgErr = err
	}
	ns.mu.Unlock()
}

// cancelTierMerge stops the compactor's merge of ns, if one is in
// flight, and waits for it to unwind. Callers hold compactMu, so no new
// merge of ns can start meanwhile.
func (ns *Namespace) cancelTierMerge() {
	e := ns.engine
	e.cmu.Lock()
	defer e.cmu.Unlock()
	if e.merging == ns {
		e.cancelMergeLocked()
	}
	for e.merging == ns {
		e.mergeDone.Wait()
	}
}

// WaitCompaction wakes the engine's compactor and blocks until it is
// idle: the merge in flight at call time has finished, and so has every
// merge due after it, unless one failed (Flush reports the failure).
// Tests and benchmarks use it to observe a settled table stack.
func (ns *Namespace) WaitCompaction() {
	e := ns.engine
	if e.stop == nil {
		return
	}
	e.wakeCompactor()
	e.cmu.Lock()
	defer e.cmu.Unlock()
	for !e.idle {
		e.mergeDone.Wait()
	}
}
