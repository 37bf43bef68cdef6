package partition

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/record"
	"scads/internal/rpc"
)

// ReadPolicy selects which replica serves reads.
type ReadPolicy int

const (
	// ReadAny rotates across replicas — the relaxed-consistency read
	// path of every coordinator read: Get, Query's gets and scans. A
	// replica over its namespace's declared staleness bound (HoldBack)
	// is passed over while any other can answer; when none can, the
	// namespace's priority order decides between serving from it and
	// ErrStaleReplicas (offer, retry.go).
	ReadAny ReadPolicy = iota
	// ReadPrimary always reads the primary — used when the
	// consistency spec demands read-your-writes without session state
	// or serializable access.
	ReadPrimary
	// WritePrimary offers a request to the primary alone, waiting out a
	// failover rather than failing over: a write has nowhere else to go
	// until the map says so, and neither has the read a
	// read-modify-write computes its new row from (a secondary's older
	// image would make the write lose an update).
	WritePrimary
)

// Router maps (namespace, key) to replica groups and performs the
// client-side request fan-out. Safe for concurrent use.
type Router struct {
	transport rpc.Transport
	dir       *cluster.Directory
	clk       clock.Clock // paces retries (retry.go); real outside this package's tests
	bounds    Bounds      // nil: no replica is ever held back as stale

	mu   sync.Mutex                      // serialises SetMap
	maps atomic.Pointer[map[string]*Map] // copy-on-write: a request reads it twice (staging, execute), SetMap is a schema or placement event

	rr atomic.Uint64 // round-robin counter for ReadAny
}

// NewRouter returns a Router resolving node addresses through dir and
// calling through transport.
func NewRouter(transport rpc.Transport, dir *cluster.Directory) *Router {
	r := &Router{transport: transport, dir: dir, clk: clock.NewReal()}
	r.maps.Store(&map[string]*Map{})
	return r
}

// HoldBack hands the router the coordinator's staleness bounds. Call it
// before the first request.
func (r *Router) HoldBack(b Bounds) { r.bounds = b }

// SetMap installs the partition map for a namespace.
func (r *Router) SetMap(namespace string, m *Map) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := maps.Clone(*r.maps.Load())
	next[namespace] = m
	r.maps.Store(&next)
}

// Map returns the partition map for a namespace.
func (r *Router) Map(namespace string) (*Map, bool) {
	m, ok := (*r.maps.Load())[namespace]
	return m, ok
}

// Namespaces lists namespaces with installed maps.
func (r *Router) Namespaces() []string {
	return slices.Collect(maps.Keys(*r.maps.Load()))
}

func (r *Router) mapFor(namespace string) (*Map, error) {
	m, ok := r.Map(namespace)
	if !ok {
		return nil, fmt.Errorf("partition: no map for namespace %q", namespace)
	}
	return m, nil
}

// Get reads key, trying replicas according to policy with failover.
// It returns the value, its version, and whether it was found. Reads —
// including the primary reads the write path depends on — ride through
// a crash window or an overloaded replica set under the shared
// request-execution contract (retry.go).
func (r *Router) Get(namespace string, key []byte, policy ReadPolicy) ([]byte, uint64, bool, error) {
	var b budget
	g := r.get(namespace, key, policy, &b, nil)
	return g.Value, g.Version, g.Found, g.Err
}

// GetIf is the coordinator's point read: Get under ReadAny with the
// read's own two conditions. A replica whose answer accept refuses (a
// session's floor; nil accepts any) fails over like one that is down,
// so the read ends at the primary or waits out the budget for an
// acceptable answer. stall is how long the read may wait for a replica
// inside the staleness bound before ErrStaleReplicas, where the
// namespace refuses the stale ones (§3.3.1's "a client query would
// stall until the updates can be confirmed").
func (r *Router) GetIf(namespace string, key []byte, stall time.Duration, accept func(version uint64, found bool) bool) ([]byte, uint64, bool, error) {
	b := budget{stall: stall}
	g := r.get(namespace, key, ReadAny, &b, accept)
	return g.Value, g.Version, g.Found, g.Err
}

// get is Get under a caller-supplied budget, so a batch's fallback
// keys share one, and acceptance test.
func (r *Router) get(namespace string, key []byte, policy ReadPolicy, b *budget, accept func(uint64, bool) bool) GetResult {
	req := rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: key}
	resp, _, err := r.execute(namespace, key, policy, b, func(_ Range, addr string) (rpc.Response, error) {
		resp, err := r.transport.Call(addr, req)
		if err == nil && resp.Err == "" && accept != nil && !accept(resp.Version, resp.Found) {
			err = errRefused
		}
		return resp, err
	})
	return GetResult{Value: resp.Value, Version: resp.Version, Found: resp.Found, Err: err}
}

// GetResult is one key's outcome from GetBatch.
type GetResult struct {
	Value   []byte
	Version uint64
	Found   bool
	Err     error
}

// GetBatch reads many keys from their ranges' primaries with at most
// one request per storage node: keys are grouped by primary and fetched
// through one MethodBatch multi-get per node, so a coordinator-side
// multi-get costs a handful of round-trips instead of one per key.
// When a node's multi-get fails (node down, unreachable or shedding, an
// error reading any key, a malformed reply), its keys fall back to the
// single-key path under policy, one retry budget per node group — the
// keys of a crashed primary typically share its range, and a permanent
// fault must cost one budget per group, not per key. Under ReadPrimary,
// between a primary's crash and the failover that flips the map its
// keys cost one round trip each, to the next replica, instead of one
// multi-get: the multi-get is not failed over, because the group shares
// a primary, not a replica list. Under WritePrimary they wait for the
// primary instead.
// The returned slice matches keys positionally; per-key failures are
// reported in GetResult.Err rather than aborting the batch.
func (r *Router) GetBatch(namespace string, keys [][]byte, policy ReadPolicy) ([]GetResult, error) {
	m, err := r.mapFor(namespace)
	if err != nil {
		return nil, err
	}
	out := make([]GetResult, len(keys))
	// node is the first key's node; groups (node -> indices into keys)
	// is built only once a key has another.
	var node string
	var groups map[string][]int
	for i, key := range keys {
		// Never empty: every Map constructor and mutator refuses an
		// empty replica list (ErrNeedReplicas).
		replicas, first := r.order(m.Lookup(key).Replicas, policy)
		n := replicas[first]
		if i == 0 {
			node = n
		}
		if groups == nil && n != node {
			groups = make(map[string][]int)
			for j := range i {
				groups[node] = append(groups[node], j)
			}
		}
		if groups != nil {
			groups[n] = append(groups[n], i)
		}
	}
	if groups == nil {
		// Every key has one node: one flight, sent inline.
		if len(keys) > 0 {
			r.getGroup(namespace, node, keys, nil, policy, out)
		}
		return out, nil
	}
	// One flight per node, all in parallel; each goroutine writes a
	// disjoint set of out indices.
	var wg sync.WaitGroup
	for node, idxs := range groups {
		wg.Add(1)
		go func(node string, idxs []int) {
			defer wg.Done()
			r.getGroup(namespace, node, keys, idxs, policy, out)
		}(node, idxs)
	}
	wg.Wait()
	return out, nil
}

// getGroup reads the keys at idxs (every key when idxs is nil), whose
// node is node, in one request to it — a get for one key, a multi-get
// for more — and writes their results to out. If the request fails,
// every key falls back to the single-key path under policy, sharing one
// retry budget.
func (r *Router) getGroup(namespace, node string, keys [][]byte, idxs []int, policy ReadPolicy, out []GetResult) {
	n, at := len(keys), func(j int) int { return j }
	if idxs != nil {
		n, at = len(idxs), func(j int) int { return idxs[j] }
	}
	if n == 1 {
		if resp, err := r.sendTo(node, rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: keys[at(0)]}); err == nil {
			out[at(0)] = GetResult{Value: resp.Value, Version: resp.Version, Found: resp.Found}
			return
		}
	} else {
		req := rpc.Request{Method: rpc.MethodBatch, Namespace: namespace, Records: make([]record.Record, n)}
		for j := range req.Records {
			req.Records[j].Key = keys[at(j)]
		}
		if resp, err := r.sendTo(node, req); err == nil && len(resp.Records) == n {
			for j, rec := range resp.Records {
				out[at(j)] = GetResult{Value: rec.Value, Version: rec.Version, Found: !rec.Tombstone}
			}
			return
		}
	}
	var b budget
	for j := range n {
		out[at(j)] = r.get(namespace, keys[at(j)], policy, &b, nil)
	}
}

// GetFrom reads key from one specific replica — what a replica
// verifier or a staleness measurement wants, never a client read.
// Failing over to another replica would break the pinning, so the read
// is a single attempt: a down, unreachable or shedding node reports its
// classified give-up error.
func (r *Router) GetFrom(namespace, nodeID string, key []byte) ([]byte, uint64, bool, error) {
	resp, err := r.sendTo(nodeID, rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: key})
	return resp.Value, resp.Version, resp.Found, err
}

// Put writes to the primary replica of key's range and returns the
// assigned version together with the replica group, so the caller can
// schedule asynchronous propagation to the remaining replicas.
func (r *Router) Put(namespace string, key, value []byte) (version uint64, replicas []string, err error) {
	return r.write(key, rpc.Request{Method: rpc.MethodPut, Namespace: namespace, Key: key, Value: value})
}

func (r *Router) write(key []byte, req rpc.Request) (uint64, []string, error) {
	resp, rng, err := r.send(key, req)
	return resp.Version, rng.Replicas, err
}

// ApplyToPrimary delivers pre-versioned records to the primary of
// key's range, waiting out fences, failovers and overload like any
// other write. It returns the range that accepted the write, so callers
// enqueue replication to the replica set that is actually serving it.
func (r *Router) ApplyToPrimary(namespace string, key []byte, recs []record.Record) (Range, error) {
	_, rng, err := r.send(key, rpc.Request{Method: rpc.MethodApply, Namespace: namespace, Records: recs})
	return rng, err
}

// Swap delivers recs, which share a primary, and answers in order the
// record each displaced there (cluster.Node's swap); since, when
// non-zero, bounds the stored versions. With nodeID set the envelope
// makes one attempt against that node, like Apply. With nodeID empty it
// goes to the primary of recs[0]'s range, waiting out fences, failovers
// and overload like any other write, and the range that accepted it is
// returned. A re-delivery whose answer the primary has forgotten fails
// with rpc.ErrSwapAnswerLost.
func (r *Router) Swap(namespace, nodeID string, recs []record.Record, since uint64) (displaced []record.Record, acked Range, err error) {
	req := rpc.Request{Method: rpc.MethodSwap, Namespace: namespace, Records: recs, Since: since}
	var resp rpc.Response
	if nodeID != "" {
		resp, err = r.sendTo(nodeID, req)
	} else {
		resp, acked, err = r.send(recs[0].Key, req)
	}
	if err == nil && len(resp.Records) != len(recs) {
		err = fmt.Errorf("partition: a swap of %d records answered %d", len(recs), len(resp.Records))
	}
	return resp.Records, acked, err
}

// Apply delivers pre-versioned records to one specific node in a
// single attempt — the delivery primitive under the replication pump,
// which reparks what it could not deliver — and reports the classified
// give-up error.
func (r *Router) Apply(namespace, nodeID string, recs []record.Record) error {
	_, err := r.sendTo(nodeID, rpc.Request{Method: rpc.MethodApply, Namespace: namespace, Records: recs})
	return err
}

func maxKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if string(a) >= string(b) {
		return a
	}
	return b
}

func minKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if string(a) <= string(b) {
		return a
	}
	return b
}
