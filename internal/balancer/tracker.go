package balancer

import (
	"bytes"
	"sort"
	"sync"
)

// Tracker accumulates the "current workload information" of §3.3.1:
// per-range request counts plus a deterministic sample of observed
// keys, from which the planner derives split points. The coordinator
// records every routed read and write; Snapshot drains a consistent
// view for planning and Reset starts the next window.
type Tracker struct {
	mu sync.Mutex
	// ranges maps namespace, then range lower bound (raw bytes as a
	// string), to the range's window. Two levels rather than one struct
	// key let Record find a range it has seen with m[string(start)],
	// which does not allocate.
	ranges map[string]map[string]*rangeStats
}

// sampleSize bounds the per-range key reservoir. Deterministic
// stride-based sampling (every Nth key once full) keeps the reservoir
// representative without randomness, so tests and simulations are
// reproducible.
const sampleSize = 64

type rangeStats struct {
	ops    float64
	seen   int
	sample [][]byte
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{ranges: make(map[string]map[string]*rangeStats)}
}

// Record notes one request against the range identified by
// (namespace, rangeStart) touching key.
func (t *Tracker) Record(namespace string, rangeStart, key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byStart := t.ranges[namespace]
	if byStart == nil {
		byStart = make(map[string]*rangeStats)
		t.ranges[namespace] = byStart
	}
	st := byStart[string(rangeStart)]
	if st == nil {
		st = &rangeStats{}
		byStart[string(rangeStart)] = st
	}
	st.ops++
	st.seen++
	if len(st.sample) < sampleSize {
		st.sample = append(st.sample, append([]byte(nil), key...))
	} else if st.seen%(st.seen/sampleSize+1) == 0 {
		// Overwrite a deterministic slot so long windows still reflect
		// recent keys. The sample never leaves the tracker, so the slot's
		// buffer is reused.
		slot := st.seen % sampleSize
		st.sample[slot] = append(st.sample[slot][:0], key...)
	}
}

// RangeObservation is one range's drained statistics.
type RangeObservation struct {
	Namespace string
	Start     []byte
	Ops       float64
	// MedianKey is the median of sampled keys — the planner's split
	// candidate. Nil when fewer than two distinct keys were seen (a
	// single-key range cannot be split).
	MedianKey []byte
}

// Snapshot returns the tracked window's observations in deterministic
// order.
func (t *Tracker) Snapshot() []RangeObservation {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RangeObservation, 0, len(t.ranges))
	for ns, byStart := range t.ranges {
		for start, st := range byStart {
			out = append(out, RangeObservation{
				Namespace: ns,
				Start:     []byte(start),
				Ops:       st.ops,
				MedianKey: medianKey(st.sample, []byte(start)),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Namespace != out[j].Namespace {
			return out[i].Namespace < out[j].Namespace
		}
		return bytes.Compare(out[i].Start, out[j].Start) < 0
	})
	return out
}

// Reset clears the window.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ranges = make(map[string]map[string]*rangeStats)
}

// medianKey returns the median distinct sampled key, provided it falls
// strictly inside the range (splitting at the range start would create
// an empty left half).
func medianKey(sample [][]byte, start []byte) []byte {
	if len(sample) == 0 {
		return nil
	}
	keys := make([][]byte, len(sample))
	copy(keys, sample)
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	distinct := keys[:1]
	for _, k := range keys[1:] {
		if !bytes.Equal(k, distinct[len(distinct)-1]) {
			distinct = append(distinct, k)
		}
	}
	if len(distinct) < 2 {
		return nil
	}
	m := distinct[len(distinct)/2]
	if bytes.Compare(m, start) <= 0 {
		return nil
	}
	return append([]byte(nil), m...)
}
