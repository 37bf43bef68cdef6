package main

import (
	"fmt"
	"time"

	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
)

// Cut-point replay: ops drawn from the workload's own generator are
// replayed, tracing off, by calling straight into the system at four
// depths. The difference between two adjacent depths is what the layer
// between them costs.

type cut int

const (
	cutRouter    cut = iota // partition.Router.Get/Put/ScanOpts
	cutTransport            // rpc.TCPTransport.Call to the owning node
	cutServe                // cluster.Node.Serve
	cutNamespace            // storage.Namespace.Get/ApplyBatch/ScanLive
	numCuts
)

// replayKind groups ops by the storage access they make.
type replayKind int

const (
	replayGet replayKind = iota
	replayPut
	replayScan
	numReplayKinds
)

var replayKindNames = [numReplayKinds]string{"get", "put", "scan"}

func replayKindOf(k opKind) (replayKind, bool) {
	switch k {
	case opGet, opFindUser:
		return replayGet, true
	case opPut, opAddFriend, opSocialUser:
		return replayPut, true
	case opFriends, opBirthdays:
		return replayScan, true
	}
	return 0, false // a delete reads before it writes: not one access
}

// replayOp is one pre-built storage access.
type replayOp struct {
	ns         string
	key, value []byte // get, put
	start, end []byte // scan
	opts       partition.ScanOptions
	node       int // owner of key or of start
}

// replayPerCut caps how many ops of a kind each cut replays.
var replayPerCut = [numReplayKinds]int{6000, 2000, 2000}

// buildReplay turns a freshly generated one-client stream into
// pre-encoded accesses, split evenly between the cuts so that each
// cut meets keys the others have not just pulled into a cache.
func buildReplay(s *stack, d *dataset, seed int64, tiny bool) (ops [numCuts][numReplayKinds][]replayOp, err error) {
	perCut := replayPerCut
	streamLen := 40_000
	if tiny {
		perCut = [numReplayKinds]int{300, 100, 100}
		streamLen = 2_000
	}
	st := genStreams(d, seed^0x7265706c6179, 1, streamLen)
	var all [numReplayKinds][]replayOp
	for i := range st.clients[0] {
		o := &st.clients[0][i]
		kind, ok := replayKindOf(o.kind)
		if !ok || len(all[kind]) >= perCut[kind]*int(numCuts) {
			continue
		}
		r, err := newReplayOp(s, o)
		if err != nil {
			return ops, err
		}
		all[kind] = append(all[kind], r)
	}
	for k := range all {
		per := len(all[k]) / int(numCuts)
		for c := cut(0); c < numCuts; c++ {
			ops[c][k] = all[k][int(c)*per : (int(c)+1)*per]
		}
	}
	return ops, nil
}

func newReplayOp(s *stack, o *op) (replayOp, error) {
	c := s.cluster
	var r replayOp
	var err error
	switch o.kind {
	case opGet:
		r.ns = planner.TableNamespace("users")
		r.key, err = usersKey(o.row["id"].(string))
	case opFindUser:
		r.ns = planner.TableNamespace("users")
		r.key, err = usersKey(o.user)
	case opPut, opSocialUser:
		r.ns = planner.TableNamespace("users")
		if r.key, err = usersKey(o.row["id"].(string)); err == nil {
			r.value, err = row.Encode(o.row)
		}
	case opAddFriend:
		r.ns = planner.TableNamespace("friendships")
		if r.key, err = row.EncodeKey(o.row, []string{"f1", "f2"}); err == nil {
			r.value, err = row.Encode(o.row)
		}
	case opFriends, opBirthdays:
		name := "friends"
		if o.kind == opBirthdays {
			name = "friendsWithUpcomingBirthdays"
		}
		plan := c.Plan(name)
		if plan == nil {
			return r, fmt.Errorf("no plan for query %s", name)
		}
		r.ns = plan.Namespace
		if r.start, r.end, err = planner.ComputeBounds(plan, o.params); err != nil {
			return r, err
		}
		r.opts = partition.ScanOptions{Limit: plan.Limit, Policy: partition.ReadAny}
		filters, err := planner.ComputeFilters(plan, o.params)
		if err != nil {
			return r, err
		}
		for _, f := range filters {
			r.opts.Preds = append(r.opts.Preds, rpc.ScanPred{Column: f.Column, Op: predOp(f.Op), Value: f.Value})
		}
		for _, pc := range plan.Project {
			r.opts.Projection = append(r.opts.Projection, pc.Column)
		}
	}
	if err != nil {
		return r, err
	}
	m, ok := c.Router().Map(r.ns)
	if !ok {
		return r, fmt.Errorf("no partition map for %s", r.ns)
	}
	at := r.key
	if at == nil {
		at = r.start
	}
	primary := m.Lookup(at).Replicas[0]
	for i, id := range s.ids {
		if id == primary {
			r.node = i
		}
	}
	return r, nil
}

func predOp(op query.CompareOp) rpc.ScanPredOp {
	switch op {
	case query.OpLt:
		return rpc.PredLt
	case query.OpLe:
		return rpc.PredLe
	case query.OpGt:
		return rpc.PredGt
	case query.OpGe:
		return rpc.PredGe
	}
	return rpc.PredEq
}

func (r *replayOp) request(kind replayKind) rpc.Request {
	switch kind {
	case replayGet:
		return rpc.Request{Method: rpc.MethodGet, Namespace: r.ns, Key: r.key}
	case replayPut:
		return rpc.Request{Method: rpc.MethodPut, Namespace: r.ns, Key: r.key, Value: r.value}
	}
	return rpc.Request{
		Method: rpc.MethodScan, Namespace: r.ns, Start: r.start, End: r.end,
		Limit: r.opts.Limit, Projection: r.opts.Projection, Preds: r.opts.Preds,
	}
}

// cutTimes is what one cut's replay of one kind measured.
type cutTimes struct {
	lat     []int64 // ns per op, sorted
	sum     int64
	records int64 // records visited by scans
	calls   int64 // transport calls the ops made (router cut)
}

// p50Us is the cut's typical cost. The median, not the mean: a replay
// is a few thousand ops, and one memtable flush landing in it would
// move a mean by more than the layer differences being measured.
func (t *cutTimes) p50Us() float64 { return usOf(percentile(t.lat, 0.5)) }

// replayCut runs one kind's ops at one cut on a single goroutine.
func replayCut(s *stack, tr *tracer, c cut, kind replayKind, ops []replayOp) (cutTimes, error) {
	t := cutTimes{lat: make([]int64, 0, len(ops))}
	router := s.cluster.Router()
	callsBefore := tr.calls.Load()
	for i := range ops {
		r := &ops[i]
		var err error
		start := time.Now()
		switch c {
		case cutRouter:
			switch kind {
			case replayGet:
				_, _, _, err = router.Get(r.ns, r.key, partition.ReadAny)
			case replayPut:
				_, _, err = router.Put(r.ns, r.key, r.value)
			default:
				var recs []record.Record
				recs, err = router.ScanOpts(r.ns, r.start, r.end, r.opts)
				t.records += int64(len(recs))
			}
		case cutTransport:
			var resp rpc.Response
			if resp, err = s.tcp.Call(s.addrs[r.node], r.request(kind)); err == nil {
				err = resp.Error()
				t.records += int64(len(resp.Records))
			}
		case cutServe:
			resp := s.nodes[r.node].Serve(r.request(kind))
			err = resp.Error()
			t.records += int64(len(resp.Records))
		case cutNamespace:
			ns, nerr := s.engines[r.node].Namespace(r.ns)
			if nerr != nil {
				return t, nerr
			}
			switch kind {
			case replayGet:
				_, _, err = ns.Get(r.key)
			case replayPut:
				err = ns.ApplyBatch([]record.Record{{Key: r.key, Value: r.value, Version: s.engines[r.node].NextVersion()}})
			default:
				left := r.opts.Limit
				err = ns.ScanLive(r.start, r.end, func(record.Record) bool {
					t.records++
					left--
					return left > 0
				})
			}
		}
		d := int64(time.Since(start))
		if err != nil {
			return t, fmt.Errorf("replay %s at cut %d: %w", replayKindNames[kind], c, err)
		}
		t.lat = append(t.lat, d)
		t.sum += d
	}
	t.calls = tr.calls.Load() - callsBefore
	sortInt64(t.lat)
	return t, nil
}
