package scads

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"scads/internal/admission"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/session"
)

// Get reads one row by primary key with the table's declared
// consistency (no session guarantees).
func (c *Cluster) Get(table string, pk row.Row) (row.Row, bool, error) {
	return c.GetStall(table, pk, nil, 0)
}

// GetSession reads one row by primary key, honouring the session's
// guarantees (read-your-writes / monotonic reads) and the namespace's
// staleness bound. Both are applied where the replica is chosen
// (partition.Router.GetIf): replicas rotate; one whose pending
// replication exceeds the bound is held back, one whose answer is under
// the session's floor fails over to the next, ultimately the primary.
// If only held-back replicas can answer, the namespace's declared
// priority order decides between serving stale data (availability
// first) and failing the read with ErrStaleReplicas (read-consistency
// first) — exactly the §3.3.1 contention example, noted in the
// contention log either way. Replicas that are down or shedding delay
// the read under the same contract as every other request; they do not
// fail it until its budget is spent.
func (c *Cluster) GetSession(table string, pk row.Row, sess *session.Session) (row.Row, bool, error) {
	return c.GetStall(table, pk, sess, 0)
}

// GetStall reads like GetSession but implements §3.3.1's stalling
// semantics: "if an update takes longer than the bound, a client query
// would stall until the updates can be confirmed". When the staleness
// bound is unsatisfiable and read-consistency is prioritised over
// availability, the read waits up to timeout on the cluster clock for
// replication to catch up — in the router's one retry loop, as the
// allowance for rounds lost to staleness — and fails with
// ErrStaleReplicas only after it. Namespaces that prioritise
// availability never stall — they serve stale data at once.
func (c *Cluster) GetStall(table string, pk row.Row, sess *session.Session, timeout time.Duration) (row.Row, bool, error) {
	start := c.clk.Now()
	r, found, err := c.getSession(table, pk, sess, timeout)
	c.record(start, err)
	return r, found, err
}

func (c *Cluster) getSession(table string, pk row.Row, sess *session.Session, stall time.Duration) (row.Row, bool, error) {
	t, ns, err := c.tableDef(table)
	if err != nil {
		return nil, false, err
	}
	// The key lives only until the row is decoded: everything that
	// keeps it (the load tracker, the session, the wire) copies it.
	kp := keyPool.Get().(*[]byte)
	defer keyPool.Put(kp)
	key, err := row.AppendKey((*kp)[:0], pk, t.PrimaryKey)
	*kp = key
	if err != nil {
		return nil, false, err
	}
	val, ver, found, err := c.pointRead(ns, key, sess.Tenant(), stall, func(ver uint64, found bool) bool {
		return sess.Acceptable(table, key, ver, found)
	})
	if err != nil {
		return nil, false, err
	}
	sess.ObserveRead(table, key, ver, found)
	r, err := decodeRow(val, found, nil)
	return r, found, err
}

// keyPool holds the buffers point reads build their primary keys in.
var keyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 48)
	return &b
}}

// staged is the read side's twin of write.go's admitted: every read
// records its load against each range it touches and then passes the
// front door at cost. keys are the keys of a point read or, for a scan,
// the two ends of its interval: a scan's load lands on every range it
// overlaps, not just the first — otherwise a hot multi-range scan is
// invisible to the balancer on all but its leading range and the
// planner never splits or spreads the tail. Load is recorded before
// admission so shed demand stays visible to the balancer: sustained skew
// should trigger rebalancing, not vanish behind the front door. The
// returned release ends the operation's in-flight accounting.
func (c *Cluster) staged(ns, tenant string, op admission.Op, cost float64, keys ...[]byte) (func(), error) {
	m, ok := c.router.Map(ns)
	if !ok {
		return nil, fmt.Errorf("scads: no partition map for %s", ns)
	}
	if op == admission.OpScan {
		for _, rng := range m.Overlapping(keys[0], keys[1]) {
			k := keys[0]
			if bytes.Compare(rng.Start, k) > 0 { // a nil end is the open one: it sorts first
				k = rng.Start
			}
			c.loads.Record(ns, rng.Start, k)
		}
	} else {
		for _, key := range keys {
			c.loads.Record(ns, m.Lookup(key).Start, key)
		}
	}
	return c.admit(tenant, op, cost)
}

// pointRead is the one point read, behind Get, GetSession, GetStall and
// the queries planned as a primary-key get: staged, then executed by
// the router's chooser under the read's acceptance test and stall
// allowance.
func (c *Cluster) pointRead(ns string, key []byte, tenant string, stall time.Duration, accept func(version uint64, found bool) bool) ([]byte, uint64, bool, error) {
	release, err := c.staged(ns, tenant, admission.OpRead, 1, key)
	if err != nil {
		return nil, 0, false, err
	}
	defer release()
	return c.router.GetIf(ns, key, stall, accept)
}

// decodeRow is the one decode step of a point read: a found stored
// value becomes a row, narrowed to the plan's projected columns when it
// has any (a SELECT of the whole row has none). Scanned rows arrive
// already narrowed by the node and are decoded as they are.
func decodeRow(val []byte, found bool, cols []string) (row.Row, error) {
	if !found {
		return nil, nil
	}
	r, err := row.Decode(val)
	if err != nil || len(cols) == 0 {
		return r, err
	}
	return row.Project(r, cols), nil
}

// GetMulti reads many rows by primary key in one coordinator pass:
// keys are grouped by primary and fetched through one multi-get per
// node (partition.Router.Deliver), so a page assembling N rows costs a
// handful of round-trips instead of N. Reads go to each range's primary
// alone, so neither the staleness bound nor a session floor has anything
// to hold back: every result is at least as fresh as Get's. During a
// primary's outage its keys wait for the failover, as a write does,
// rather than being served by a secondary. Results are positional:
// rows[i] and found[i] answer pks[i].
func (c *Cluster) GetMulti(table string, pks []row.Row) (rows []row.Row, found []bool, err error) {
	start := c.clk.Now()
	rows, found, err = c.getMulti(table, pks)
	c.record(start, err)
	return rows, found, err
}

func (c *Cluster) getMulti(table string, pks []row.Row) ([]row.Row, []bool, error) {
	if len(pks) == 0 {
		return nil, nil, nil
	}
	t, ns, err := c.tableDef(table)
	if err != nil {
		return nil, nil, err
	}
	keys := make([][]byte, len(pks))
	recs := make([]record.Record, len(pks))
	for i, pk := range pks {
		if keys[i], err = pkKey(t, pk); err != nil {
			return nil, nil, err
		}
		recs[i].Key = keys[i]
	}
	release, err := c.staged(ns, "", admission.OpRead, float64(len(keys)), keys...)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	got, err := c.router.Deliver(rpc.Request{Method: rpc.MethodBatch, Namespace: ns}, recs, make([]partition.Range, len(recs)))
	if err != nil {
		return nil, nil, err
	}
	rows := make([]row.Row, len(pks))
	found := make([]bool, len(pks))
	for i, rec := range got {
		found[i] = !rec.Tombstone
		if rows[i], err = decodeRow(rec.Value, found[i], nil); err != nil {
			return nil, nil, err
		}
	}
	return rows, found, nil
}

// InsertSession is Insert plus read-your-writes bookkeeping: the
// session records the write so its later reads are guaranteed to see
// it. The write is accounted to the session's bound tenant.
func (c *Cluster) InsertSession(table string, r row.Row, sess *session.Session) error {
	ver, err := c.insertAs(table, r, sess.Tenant())
	if err != nil {
		return err
	}
	c.observeOwnWrite(table, r, sess, false, ver)
	return nil
}

// DeleteSession is Delete plus read-your-writes bookkeeping.
func (c *Cluster) DeleteSession(table string, pk row.Row, sess *session.Session) error {
	ver, err := c.deleteAs(table, pk, sess.Tenant())
	if err != nil {
		return err
	}
	c.observeOwnWrite(table, pk, sess, true, ver)
	return nil
}

func (c *Cluster) observeOwnWrite(table string, pk row.Row, sess *session.Session, deleted bool, version uint64) {
	if sess == nil || version == 0 {
		return
	}
	t, _, err := c.tableDef(table)
	if err != nil {
		return
	}
	key, err := pkKey(t, pk)
	if err != nil {
		return
	}
	// The floor is the write's exact assigned version. An upper bound
	// (the coordinator's current HLC) is NOT correct here: concurrent
	// writers to other keys advance the HLC between this write's
	// versioning and its observation, and a floor above the record's
	// real version makes the session reject every replica — including
	// the primary that holds the write.
	sess.ObserveWrite(table, key, version, deleted)
}

// Query executes a declared query template with the given parameters,
// returning at most its LIMIT rows in index order. Every execution is
// a single bounded contiguous range read (§3.1), served by whichever
// replica the router's rotation picks (partition.ReadAny) under the
// staleness bound of the table the plan's namespace derives from — an
// index inherits its driving table's — with the same §3.3.1 arbitration
// as Get when only stale replicas can answer. Session floors are per
// key and are not applied to queries.
func (c *Cluster) Query(name string, params map[string]any) ([]row.Row, error) {
	return c.QuerySession(name, params, nil)
}

// QuerySession is Query with the execution accounted to the session's
// bound tenant: the scan passes the tenant's admission gate and its
// result size is debited against the tenant's scan-byte quota.
func (c *Cluster) QuerySession(name string, params map[string]any, sess *session.Session) ([]row.Row, error) {
	start := c.clk.Now()
	rows, err := c.query(name, params, sess.Tenant())
	c.record(start, err)
	return rows, err
}

func (c *Cluster) query(name string, params map[string]any, tenant string) ([]row.Row, error) {
	plan := c.Plan(name)
	if plan == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownQuery, name)
	}
	startKey, endKey, err := planner.ComputeBounds(plan, params)
	if err != nil {
		return nil, err
	}

	var cols []string
	for _, pc := range plan.Project {
		cols = append(cols, pc.Column)
	}

	if plan.Access == planner.AccessPKGet {
		val, _, found, err := c.pointRead(plan.Namespace, startKey, tenant, 0, nil)
		if err != nil || !found {
			return nil, err
		}
		r, err := decodeRow(val, found, cols)
		if err != nil {
			return nil, err
		}
		return []row.Row{r}, nil
	}

	release, err := c.staged(plan.Namespace, tenant, admission.OpScan, 1, startKey, endKey)
	if err != nil {
		return nil, err
	}
	defer release()

	// Scatter-gather scan with pushdown: residual filters and (when the
	// plan narrows stored rows) the projection travel with the request,
	// so storage nodes return pre-filtered, pre-projected rows instead
	// of the coordinator decoding every base row.
	filters, err := planner.ComputeFilters(plan, params)
	if err != nil {
		return nil, err
	}
	recs, err := c.router.ScanOpts(plan.Namespace, startKey, endKey, partition.ScanOptions{
		Limit: plan.Limit, Policy: partition.ReadAny, Tenant: tenant,
		Preds: scanPreds(filters), Projection: cols,
	})
	if err != nil {
		return nil, err
	}
	out, err := row.DecodeAll(recs)
	if err != nil {
		return nil, err
	}
	// Scan-byte quotas are post-paid: the result size isn't known
	// until the fan-out returns, so the tenant's bucket is debited
	// after the fact and an overdraw blocks the *next* scan.
	var scanBytes int64
	for _, rec := range recs {
		scanBytes += int64(len(rec.Value))
	}
	c.admission.DebitScanBytes(tenant, scanBytes)
	return out, nil
}

// scanPreds converts resolved planner filters into wire predicates.
func scanPreds(filters []planner.Filter) []rpc.ScanPred {
	if len(filters) == 0 {
		return nil
	}
	out := make([]rpc.ScanPred, len(filters))
	for i, f := range filters {
		out[i] = rpc.ScanPred{Column: f.Column, Op: predOp(f.Op), Value: f.Value}
	}
	return out
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
	default:
		return rpc.PredEq
	}
}
