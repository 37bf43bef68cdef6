package storage

import (
	"errors"

	"scads/internal/sstable"
)

// Size-tiered background compaction.
//
// A flush that pushes a namespace past Options.MaxTables no longer
// merges the whole stack inline: it kicks a background pass that picks
// contiguous runs of similar-sized tables ("tiers") and merges each
// run into one table, concurrently across independent runs, bounded by
// the engine-wide compactionParallelism semaphore and throttled by
// Options.CompactionRateBytes. Runs must be contiguous in the stack:
// the stack order is the last-write-wins tie-break between equal
// versions, and merging non-adjacent tables would reorder it.
//
// Foreground paths that need the table set to themselves — TruncateRange
// (its major compaction rewrites the whole stack) and close — cancel
// in-flight tier merges (the merge polls a stop channel between records,
// and the channel wakes a rate-limited merge's sleep) and wait them out
// before proceeding, so a background merge can never stall a fence
// handoff for longer than one record's merge.

const (
	// tierSizeRatio bounds how dissimilar table sizes within one
	// selected run may be (max/min file size).
	tierSizeRatio = 4
	// maxTierRun caps how many tables one tier merge consumes, keeping
	// individual background merges short and cancellable cheaply.
	maxTierRun = 8
)

// tierJob is one background merge of a contiguous run of tables.
type tierJob struct {
	ns             *Namespace
	tables         []*sstable.Reader // contiguous run, newest first
	seq            uint64
	dropTombstones bool
	stop           chan struct{}
}

// kickCompaction starts a background pass that drains table-count
// pressure. Called after a flush; returns immediately.
func (ns *Namespace) kickCompaction() {
	go ns.compactTiers()
}

// compactTiers picks eligible tier runs and launches one merge
// goroutine per run until no further run is eligible (no pressure, or
// every candidate is already being compacted).
func (ns *Namespace) compactTiers() {
	for {
		job := ns.pickTierJob()
		if job == nil {
			return
		}
		go func(j *tierJob) {
			j.run()
			// Done strictly before re-checking pressure: the re-check's
			// pick blocks on compactMu, which a canceller may hold while
			// waiting on the WaitGroup.
			ns.tierWG.Done()
			ns.compactTiers()
		}(job)
	}
}

// pickTierJob selects and claims the next tier run under compactMu (so
// selection can never race a major compaction's whole-stack snapshot)
// and ns.mu. Returns nil when nothing is eligible.
func (ns *Namespace) pickTierJob() *tierJob {
	ns.compactMu.Lock()
	defer ns.compactMu.Unlock()
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed || ns.dir == "" {
		return nil
	}
	if len(ns.tables) <= ns.engine.opts.MaxTables {
		return nil
	}
	run := pickTierRun(ns.tables, ns.compacting)
	if run[1] < 2 {
		return nil
	}
	start := run[0]
	tables := append([]*sstable.Reader(nil), ns.tables[start:start+run[1]]...)
	job := &tierJob{
		ns:     ns,
		tables: tables,
		seq:    ns.tableSeq,
		stop:   make(chan struct{}),
		// Consuming the entire stack makes this a de-facto major merge:
		// no older table can hold a value a dropped tombstone shadows.
		// A memtable, or a table flushed meanwhile, can — Apply stores a
		// put older than a tombstone unread — and installTable keeps the
		// tombstones that could be shadowing one. A put that arrives after
		// its tombstone was dropped still comes back to life, as it always
		// did: tombstones have no grace period here.
		dropTombstones: len(tables) == len(ns.tables),
	}
	ns.tableSeq++
	for _, t := range tables {
		if ns.compacting == nil {
			ns.compacting = make(map[*sstable.Reader]bool)
		}
		ns.compacting[t] = true
	}
	if ns.tierStops == nil {
		ns.tierStops = make(map[chan struct{}]struct{})
	}
	ns.tierStops[job.stop] = struct{}{}
	ns.tierWG.Add(1)
	return job
}

// pickTierRun returns {start index, length} of the best contiguous run
// of >=2 unmarked tables whose file sizes are within tierSizeRatio of
// each other, preferring the run with the smallest total bytes (the
// cheapest merge first, classic size-tiered policy). If no such run
// exists it falls back to the smallest adjacent unmarked pair, so a
// stack of pairwise-dissimilar tables still converges under pressure.
// Returns nil when no two adjacent tables are free.
func pickTierRun(tables []*sstable.Reader, marked map[*sstable.Reader]bool) [2]int {
	bestTotal := int64(-1)
	var best [2]int
	pairTotal := int64(-1)
	var pair [2]int
	for start := 0; start < len(tables)-1; start++ {
		if marked[tables[start]] {
			continue
		}
		minSz := tables[start].SizeBytes()
		maxSz := minSz
		total := minSz
		for end := start + 1; end < len(tables) && end-start < maxTierRun; end++ {
			if marked[tables[end]] {
				break
			}
			sz := tables[end].SizeBytes()
			if end == start+1 {
				if pairTotal < 0 || total+sz < pairTotal {
					pairTotal = total + sz
					pair = [2]int{start, 2}
				}
			}
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
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
	if pairTotal >= 0 {
		return pair
	}
	return [2]int{}
}

// run executes the merge and splices the result into the table stack.
func (j *tierJob) run() {
	ns := j.ns
	// Bounded engine-wide parallelism; give up promptly if cancelled
	// while queued behind other merges.
	select {
	case ns.engine.compactSem <- struct{}{}:
	case <-j.stop:
		j.finish(nil)
		return
	}
	defer func() { <-ns.engine.compactSem }()

	j.finish(ns.installTable(j.seq, sstable.MergeOptions{
		DropTombstones:       j.dropTombstones,
		RateLimitBytesPerSec: ns.engine.opts.CompactionRateBytes,
		Clock:                ns.engine.opts.Clock,
		Cancel:               j.stop,
	}, j.tables, nil))
}

// finish releases the job's claims and records a failure of the merge
// other than its cancellation.
func (j *tierJob) finish(err error) {
	ns := j.ns
	ns.mu.Lock()
	for _, t := range j.tables {
		delete(ns.compacting, t)
	}
	delete(ns.tierStops, j.stop)
	if err != nil && !errors.Is(err, sstable.ErrMergeCanceled) && ns.bgErr == nil {
		ns.bgErr = err
	}
	ns.mu.Unlock()
}

// takeBgErr returns and clears the first background compaction error.
func (ns *Namespace) takeBgErr() error {
	ns.mu.Lock()
	err := ns.bgErr
	ns.bgErr = nil
	ns.mu.Unlock()
	return err
}

// cancelTierMerges stops every in-flight background tier merge and
// waits for them to unwind. Callers hold compactMu (so no new job can
// be picked concurrently) but not ns.mu.
func (ns *Namespace) cancelTierMerges() {
	ns.mu.Lock()
	for ch := range ns.tierStops {
		close(ch)
	}
	ns.tierStops = nil
	ns.mu.Unlock()
	ns.tierWG.Wait()
}

// WaitCompaction blocks until every background tier merge in flight at
// call time has finished. Tests and benchmarks use it to observe a
// settled table stack; new merges may start afterwards.
func (ns *Namespace) WaitCompaction() {
	ns.tierWG.Wait()
}

func tableIndex(tables []*sstable.Reader, t *sstable.Reader) int {
	for i, cur := range tables {
		if cur == t {
			return i
		}
	}
	return -1
}
