package cluster

import (
	"bytes"
	"sync"

	"scads/internal/record"
)

// fenceSet tracks the key ranges a node currently rejects writes for.
// A fence is installed on the donor primary during a migration's final
// delta drain, and stays on any node that loses a range — a straggling
// in-flight write routed before the flip must bounce (the coordinator
// re-reads the map and retries against the new primary) rather than
// land invisibly on a node that no longer serves the range. A node
// that regains a range has its fence lifted by the migration manager
// before the snapshot copy begins.
//
// Fences gate client and replication writes (put, delete, apply) and
// range scans overlapping a fenced span (a fenced loser may already be
// mid-truncation, so a scan served there could silently miss data);
// point reads, snapshots, deltas and droprange cleanup pass through.
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

// add installs a fence over [start, end); installing an identical
// fence twice is a no-op, so retried migrations stay idempotent.
func (fs *fenceSet) add(ns string, start, end []byte) {
	nf := fenceRange{
		start: append([]byte(nil), start...),
		end:   append([]byte(nil), end...),
	}
	if start == nil {
		nf.start = nil
	}
	if end == nil {
		nf.end = nil
	}
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
			kept = append(kept, fenceRange{start: f.start, end: cloneFenceBound(start)})
		}
		// Right remainder: [end, f.end).
		if end != nil && (f.end == nil || bytes.Compare(end, f.end) < 0) {
			kept = append(kept, fenceRange{start: cloneFenceBound(end), end: f.end})
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

func cloneFenceBound(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// covers reports whether key falls inside any fence of the namespace.
func (fs *fenceSet) covers(ns string, key []byte) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, f := range fs.byNS[ns] {
		if f.contains(key) {
			return true
		}
	}
	return false
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

// anyCovered reports whether any record of the group falls inside a
// fence of the namespace; a fenced group is rejected whole and the
// coordinator falls back to per-record routing.
func (fs *fenceSet) anyCovered(ns string, recs []record.Record) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fences := fs.byNS[ns]
	if len(fences) == 0 {
		return false
	}
	for _, rec := range recs {
		for _, f := range fences {
			if f.contains(rec.Key) {
				return true
			}
		}
	}
	return false
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
