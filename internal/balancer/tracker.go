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
	mu     sync.Mutex
	ranges map[rangeKey]*rangeStats
}

type rangeKey struct {
	namespace string
	start     string // range lower bound (raw bytes as string map key)
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
	return &Tracker{ranges: make(map[rangeKey]*rangeStats)}
}

// Record notes one request against the range identified by
// (namespace, rangeStart) touching key.
func (t *Tracker) Record(namespace string, rangeStart, key []byte) {
	rk := rangeKey{namespace: namespace, start: string(rangeStart)}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.ranges[rk]
	if st == nil {
		st = &rangeStats{}
		t.ranges[rk] = st
	}
	st.ops++
	st.seen++
	if len(st.sample) < sampleSize {
		st.sample = append(st.sample, append([]byte(nil), key...))
	} else if st.seen%(st.seen/sampleSize+1) == 0 {
		// Overwrite a deterministic slot so long windows still reflect
		// recent keys.
		st.sample[st.seen%sampleSize] = append([]byte(nil), key...)
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
	for rk, st := range t.ranges {
		obs := RangeObservation{
			Namespace: rk.namespace,
			Start:     []byte(rk.start),
			Ops:       st.ops,
			MedianKey: medianKey(st.sample, []byte(rk.start)),
		}
		out = append(out, obs)
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
	t.ranges = make(map[rangeKey]*rangeStats)
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
