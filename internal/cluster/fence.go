package cluster

import (
	"bytes"
	"sync"

	"scads/internal/record"
)

// fenceSet tracks the key ranges a node currently rejects writes for.
// A fence goes up on the donor primary for a migration's handoff — the
// install answers the range's final delta (Node.rangeFence) — and stays
// on any node that loses the range: a straggling in-flight write routed
// before the flip must bounce (the coordinator re-reads the map and
// retries against the new primary) rather than land invisibly on a node
// that no longer serves the range. A node that regains a range has its
// fence lifted by the migration manager before the snapshot copy
// begins.
//
// Fences gate client and replication writes (put, delete, apply) and
// range scans overlapping a fenced span (a fenced loser may already be
// mid-truncation, so a scan served there could silently miss data);
// point reads, snapshots, deltas and droprange cleanup pass through.
// A gated write or scan runs while the fences hold still
// (whileKeysClear, whileClear), so installing a fence waits for the
// ones in flight.
type fenceSet struct {
	mu   sync.RWMutex
	byNS map[string][]fenceRange
}

type fenceRange struct {
	start, end []byte // start inclusive (nil = -inf), end exclusive (nil = +inf)
}

func (f fenceRange) contains(key []byte) bool {
	if f.start != nil && bytes.Compare(key, f.start) < 0 {
		return false
	}
	if f.end != nil && bytes.Compare(key, f.end) >= 0 {
		return false
	}
	return true
}

func (f fenceRange) equal(o fenceRange) bool {
	return bytes.Equal(f.start, o.start) && bytes.Equal(f.end, o.end)
}

// add installs a fence over [start, end), keeping the slices: a
// request owns its bytes (rpc.Handler). Installing an identical fence
// twice is a no-op, so retried migrations stay idempotent.
func (fs *fenceSet) add(ns string, start, end []byte) {
	nf := fenceRange{start: start, end: end}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.byNS == nil {
		fs.byNS = make(map[string][]fenceRange)
	}
	for _, f := range fs.byNS[ns] {
		if f.equal(nf) {
			return
		}
	}
	fs.byNS[ns] = append(fs.byNS[ns], nf)
}

// remove lifts fencing over [start, end) by subtraction: any fence
// overlapping the span is cut down to its remainder outside it. This
// keeps unfencing correct across range splits and merges — a node
// that lost [a,z) and later regains only [a,m) has exactly [a,m)
// unfenced, while [m,z) stays protected. Removing a span no fence
// covers is a no-op, so lifting twice is safe.
func (fs *fenceSet) remove(ns string, start, end []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var kept []fenceRange
	for _, f := range fs.byNS[ns] {
		if !f.overlaps(start, end) {
			kept = append(kept, f)
			continue
		}
		// Left remainder: [f.start, start).
		if start != nil && (f.start == nil || bytes.Compare(f.start, start) < 0) {
			kept = append(kept, fenceRange{start: f.start, end: start})
		}
		// Right remainder: [end, f.end).
		if end != nil && (f.end == nil || bytes.Compare(end, f.end) < 0) {
			kept = append(kept, fenceRange{start: end, end: f.end})
		}
	}
	if len(kept) == 0 {
		delete(fs.byNS, ns)
	} else {
		fs.byNS[ns] = kept
	}
}

// overlaps reports whether f intersects [start, end) (nil bounds are
// infinite).
func (f fenceRange) overlaps(start, end []byte) bool {
	if f.end != nil && start != nil && bytes.Compare(f.end, start) <= 0 {
		return false
	}
	if f.start != nil && end != nil && bytes.Compare(end, f.start) <= 0 {
		return false
	}
	return true
}

// whileClear runs read unless a fence of the namespace overlaps
// [start, end) (nil bounds are infinite), and reports whether it ran.
// Range scans read through it: a fence means the span is mid-handoff
// (or already lost and about to be truncated), so a scan must bounce
// and re-route off the fresh partition map rather than risk reading a
// partially torn-down range. The fences hold still while read runs, so
// a fence — and the teardown that follows one — cannot land between
// the check and the read.
func (fs *fenceSet) whileClear(ns string, start, end []byte, read func()) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, f := range fs.byNS[ns] {
		if f.overlaps(start, end) {
			return false
		}
	}
	read()
	return true
}

// whileKeysClear runs write unless a fence of the namespace contains
// one of the records' keys, and reports whether it ran. Put, delete and
// apply write through it; a fenced group is rejected whole and the
// coordinator falls back to per-record routing. As in whileClear, the
// fences hold still while write runs, so a write cannot pass the check
// just before a fence goes up and land after the final delta the
// install answers, to be lost at teardown.
func (fs *fenceSet) whileKeysClear(ns string, recs []record.Record, write func()) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fences := fs.byNS[ns]
	for _, rec := range recs {
		for _, f := range fences {
			if f.contains(rec.Key) {
				return false
			}
		}
	}
	write()
	return true
}

// count reports the number of installed fences across namespaces.
func (fs *fenceSet) count() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := 0
	for _, fences := range fs.byNS {
		n += len(fences)
	}
	return n
}
