package partition

import (
	"cmp"
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

// ReadPolicy selects which replicas a request may be offered to.
type ReadPolicy int

const (
	// ReadAny rotates across replicas — the relaxed-consistency read
	// path of every coordinator read: Get, Query's gets and scans. A
	// replica over its namespace's declared staleness bound (HoldBack)
	// is passed over while any other can answer; when none can, the
	// namespace's priority order decides between serving from it and
	// ErrStaleReplicas (offer, retry.go).
	ReadAny ReadPolicy = iota
	// Primary offers a request to the primary alone, waiting out a
	// failover or overload rather than asking another replica: a write
	// has nowhere else to go until the map says so, and neither has a
	// read that must be fresh — the read a read-modify-write computes
	// its new row from, GetMulti's and index upkeep's (a secondary's
	// older image would lose an update or leave an index behind).
	Primary
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
	return r.get(namespace, key, policy, &b, nil)
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
	return r.get(namespace, key, ReadAny, &b, accept)
}

// get is Get under budget b and an acceptance test.
func (r *Router) get(namespace string, key []byte, policy ReadPolicy, b *budget, accept func(uint64, bool) bool) ([]byte, uint64, bool, error) {
	req := rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: key}
	resp, _, err := r.execute(namespace, key, policy, b, func(_ Range, addr string) (rpc.Response, error) {
		resp, err := r.transport.Call(addr, req)
		if err == nil && resp.Err == "" && accept != nil && !accept(resp.Version, resp.Found) {
			err = errRefused
		}
		return resp, err
	})
	return resp.Value, resp.Version, resp.Found, err
}

// Deliver is the one request that carries several records to their
// primaries: req is a multi-get, a swap or an apply, and recs go as its
// Records. Each record goes to the primary of its key's range, in one
// request per primary, the groups in parallel and each in recs' order.
// A group whose request fails, or answers the wrong number of records,
// sends each of its records alone under Primary, sharing one retry
// budget — a record the request did land is then answered from the
// primary's swap memory; a group of one record goes that way at once,
// so a one-key multi-get is a get. Deliver sets served[i] to the range
// that took recs[i], or to a zero Range when it was not delivered, and
// answers in recs' order what the nodes answered — the record a swap
// displaced, the row a multi-get read (a tombstone for none), nothing
// for an apply — with an entry for every record served names, and the
// first error met.
func (r *Router) Deliver(req rpc.Request, recs []record.Record, served []Range) ([]record.Record, error) {
	m, err := r.mapFor(req.Namespace)
	if err != nil {
		clear(served)
		return nil, err
	}
	single := true
	for i, rec := range recs {
		served[i] = m.Lookup(rec.Key)
		single = single && served[i].Replicas[0] == served[0].Replicas[0]
	}
	if single {
		return r.deliverGroup(req, recs, served)
	}
	return r.deliverGroups(req, recs, served)
}

// deliverGroups is Deliver of recs that span primaries, whose ranges
// served holds: each primary's group is delivered concurrently into its
// own slices, gathered into recs' order once every group is back (no
// goroutine touches served, which a caller may keep on its stack).
func (r *Router) deliverGroups(req rpc.Request, recs []record.Record, served []Range) ([]record.Record, error) {
	type group struct {
		idx       []int
		recs, out []record.Record
		served    []Range
		err       error
	}
	var groups []group
	for i, rec := range recs {
		k := slices.IndexFunc(groups, func(g group) bool { return g.served[0].Replicas[0] == served[i].Replicas[0] })
		if k < 0 {
			k, groups = len(groups), append(groups, group{})
		}
		g := &groups[k]
		g.idx, g.recs, g.served = append(g.idx, i), append(g.recs, rec), append(g.served, served[i])
	}
	var wg sync.WaitGroup
	for k := range groups {
		g := &groups[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.out, g.err = r.deliverGroup(req, g.recs, g.served)
		}()
	}
	wg.Wait()
	var out []record.Record
	if req.Method != rpc.MethodApply {
		out = make([]record.Record, len(recs))
	}
	var err error
	for _, g := range groups {
		for j, i := range g.idx {
			served[i] = g.served[j]
			if g.out != nil {
				out[i] = g.out[j]
			}
		}
		err = cmp.Or(err, g.err)
	}
	return out, err
}

// deliverGroup is Deliver of recs, whose primary is served[0]'s.
func (r *Router) deliverGroup(req rpc.Request, recs []record.Record, served []Range) ([]record.Record, error) {
	if len(recs) > 1 {
		req.Records = recs
		if resp, err := r.sendTo(served[0].Replicas[0], req); err == nil && (req.Method == rpc.MethodApply || len(resp.Records) == len(recs)) {
			return resp.Records, nil
		}
	}
	clear(served)
	var out []record.Record
	var first error
	var b budget
	for i := range recs {
		one := req
		one.Records = recs[i : i+1]
		if req.Method == rpc.MethodBatch {
			one = rpc.Request{Method: rpc.MethodGet, Namespace: req.Namespace, Key: recs[i].Key}
		}
		resp, rng, err := r.execute(req.Namespace, recs[i].Key, Primary, &b, func(_ Range, addr string) (rpc.Response, error) {
			return r.transport.Call(addr, one)
		})
		if err == nil && req.Method == rpc.MethodSwap && len(resp.Records) != 1 {
			err = fmt.Errorf("partition: a swap of one record answered %d", len(resp.Records))
		}
		if err != nil {
			first = cmp.Or(first, err)
			continue
		}
		served[i] = rng
		switch {
		case req.Method == rpc.MethodApply:
			continue
		case req.Method == rpc.MethodSwap && len(recs) == 1:
			return resp.Records, nil // the answer as decoded, not copied
		case out == nil:
			out = make([]record.Record, len(recs))
		}
		if req.Method == rpc.MethodSwap {
			out[i] = resp.Records[0]
		} else {
			out[i] = record.Record{Value: resp.Value, Version: resp.Version, Tombstone: !resp.Found}
		}
	}
	return out, first
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
	req := rpc.Request{Method: rpc.MethodPut, Namespace: namespace, Key: key, Value: value}
	var b budget
	resp, rng, err := r.execute(namespace, key, Primary, &b, func(_ Range, addr string) (rpc.Response, error) {
		return r.transport.Call(addr, req)
	})
	return resp.Version, rng.Replicas, err
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
