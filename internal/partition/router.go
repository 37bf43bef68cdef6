package partition

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/record"
	"scads/internal/rpc"
)

// ReadPolicy selects which replica serves reads.
type ReadPolicy int

const (
	// ReadAny rotates across replicas — the relaxed-consistency read
	// path. The router knows no staleness bound and no session floor:
	// a replica answers with whatever it has applied. The coordinator's
	// Get/GetSession/GetStall enforce both themselves, replica by
	// replica (GetFrom); Query's gets and scans use ReadAny as is, so
	// their staleness is bounded only by the replication pump's
	// deadline order, not per read.
	ReadAny ReadPolicy = iota
	// ReadPrimary always reads the primary — used when the
	// consistency spec demands read-your-writes without session state
	// or serializable access.
	ReadPrimary
	// writePrimary offers a request to the primary alone: a write has
	// nowhere to fail over to until the map says so.
	writePrimary
)

// Router maps (namespace, key) to replica groups and performs the
// client-side request fan-out. Safe for concurrent use.
type Router struct {
	transport rpc.Transport
	dir       *cluster.Directory
	clk       clock.Clock // paces retries (retry.go); real outside this package's tests

	mu   sync.RWMutex
	maps map[string]*Map

	rr atomic.Uint64 // round-robin counter for ReadAny
}

// NewRouter returns a Router resolving node addresses through dir and
// calling through transport.
func NewRouter(transport rpc.Transport, dir *cluster.Directory) *Router {
	return &Router{transport: transport, dir: dir, clk: clock.NewReal(), maps: make(map[string]*Map)}
}

// SetMap installs the partition map for a namespace.
func (r *Router) SetMap(namespace string, m *Map) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maps[namespace] = m
}

// Map returns the partition map for a namespace.
func (r *Router) Map(namespace string) (*Map, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.maps[namespace]
	return m, ok
}

// Namespaces lists namespaces with installed maps.
func (r *Router) Namespaces() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.maps))
	for ns := range r.maps {
		out = append(out, ns)
	}
	return out
}

func (r *Router) mapFor(namespace string) (*Map, error) {
	m, ok := r.Map(namespace)
	if !ok {
		return nil, fmt.Errorf("partition: no map for namespace %q", namespace)
	}
	return m, nil
}

// addrOf resolves a node ID to its address if the node is serving.
func (r *Router) addrOf(nodeID string) (string, bool) {
	m, ok := r.dir.Get(nodeID)
	if !ok || m.Status != cluster.StatusUp {
		return "", false
	}
	return m.Addr, true
}

// Get reads key, trying replicas according to policy with failover.
// It returns the value, its version, and whether it was found. Reads —
// including the primary reads the write path depends on — ride through
// a crash window or an overloaded replica set under the shared
// request-execution contract (retry.go).
func (r *Router) Get(namespace string, key []byte, policy ReadPolicy) ([]byte, uint64, bool, error) {
	var b budget
	g := r.get(namespace, key, policy, &b)
	return g.Value, g.Version, g.Found, g.Err
}

// get is Get under a caller-supplied budget, so a batch's fallback
// keys share one.
func (r *Router) get(namespace string, key []byte, policy ReadPolicy, b *budget) GetResult {
	resp, _, err := r.send(key, policy, b, rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: key})
	return GetResult{Value: resp.Value, Version: resp.Version, Found: resp.Found, Err: err}
}

// GetResult is one key's outcome from GetBatch.
type GetResult struct {
	Value   []byte
	Version uint64
	Found   bool
	Err     error
}

// GetBatch reads many keys with at most one request per storage node:
// keys are grouped by the replica the policy selects and fetched
// through one MethodBatch envelope per node, so a coordinator-side
// multi-get costs a handful of round-trips instead of one per key.
// Keys the envelope did not answer cleanly (node unreachable or
// shedding, malformed reply, per-key error) fall back to the single-key
// path with its usual failover, one retry budget per node group. The
// returned slice matches keys positionally; per-key failures are
// reported in GetResult.Err rather than aborting the batch.
func (r *Router) GetBatch(namespace string, keys [][]byte, policy ReadPolicy) ([]GetResult, error) {
	m, err := r.mapFor(namespace)
	if err != nil {
		return nil, err
	}
	out := make([]GetResult, len(keys))
	// node -> indices into keys. Keys with no serving replica at this
	// instant (likely a crash window the repair manager is about to
	// resolve) group under "": their envelope attempt fails at once and
	// the fallback waits out the failover under one budget for all of
	// them — they typically share the crashed range, and a permanent
	// configuration error must cost one budget per batch, not per key.
	groups := make(map[string][]int)
	for i, key := range keys {
		replicas, first := r.order(m.Lookup(key).Replicas, policy)
		node := ""
		for j := range replicas {
			id := replicas[(first+j)%len(replicas)]
			if _, ok := r.addrOf(id); ok {
				node = id
				break
			}
		}
		groups[node] = append(groups[node], i)
	}
	// One flight per node, all in parallel; each goroutine writes a
	// disjoint set of out indices.
	var wg sync.WaitGroup
	for node, idxs := range groups {
		wg.Add(1)
		go func(node string, idxs []int) {
			defer wg.Done()
			subs := make([]rpc.Request, len(idxs))
			for j, i := range idxs {
				subs[j] = rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: keys[i]}
			}
			var resps []rpc.Response
			if len(subs) == 1 {
				if resp, err := r.sendTo(node, subs[0]); err == nil {
					resps = []rpc.Response{resp}
				}
			} else if resp, err := r.sendTo(node, rpc.Request{Method: rpc.MethodBatch, Batch: subs}); err == nil && len(resp.Batch) == len(subs) {
				resps = resp.Batch
			}
			var b budget
			for j, i := range idxs {
				if resps == nil || resps[j].Err != "" {
					out[i] = r.get(namespace, keys[i], policy, &b)
					continue
				}
				out[i] = GetResult{Value: resps[j].Value, Version: resps[j].Version, Found: resps[j].Found}
			}
		}(node, idxs)
	}
	wg.Wait()
	return out, nil
}

// GetFrom reads key from one specific replica (used by session
// guarantees to pin reads and by experiments that measure staleness).
// Failing over to another replica would break the pinning, so the read
// is a single attempt: a down, unreachable or shedding node reports its
// classified give-up error and the caller decides whether its session
// floor lets it try elsewhere.
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

// Delete tombstones key on the primary replica.
func (r *Router) Delete(namespace string, key []byte) (version uint64, replicas []string, err error) {
	return r.write(key, rpc.Request{Method: rpc.MethodDelete, Namespace: namespace, Key: key})
}

func (r *Router) write(key []byte, req rpc.Request) (uint64, []string, error) {
	var b budget
	resp, rng, err := r.send(key, writePrimary, &b, req)
	return resp.Version, rng.Replicas, err
}

// ApplyToPrimary delivers pre-versioned records to the primary of
// key's range, waiting out fences, failovers and overload like any
// other write. It returns the range that accepted the write, so callers
// enqueue replication to the replica set that is actually serving it.
func (r *Router) ApplyToPrimary(namespace string, key []byte, recs []record.Record) (Range, error) {
	var b budget
	_, rng, err := r.send(key, writePrimary, &b, rpc.Request{Method: rpc.MethodApply, Namespace: namespace, Records: recs})
	return rng, err
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
