package scads

import (
	"bytes"
	"fmt"
	"time"

	"scads/internal/admission"
	"scads/internal/consistency"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/session"
)

// Get reads one row by primary key with the table's declared
// consistency (no session guarantees).
func (c *Cluster) Get(table string, pk row.Row) (row.Row, bool, error) {
	return c.GetSession(table, pk, nil)
}

// GetSession reads one row by primary key, honouring the session's
// guarantees (read-your-writes / monotonic reads) and the namespace's
// staleness bound. Replicas whose pending replication exceeds the
// bound are skipped; if that leaves no acceptable replica, the
// namespace's declared priority order decides between serving stale
// data (availability first) and failing the read (read-consistency
// first) — exactly the §3.3.1 contention example.
func (c *Cluster) GetSession(table string, pk row.Row, sess *session.Session) (row.Row, bool, error) {
	start := c.clk.Now()
	r, found, err := c.getSession(table, pk, sess)
	c.record(start, err)
	return r, found, err
}

func (c *Cluster) getSession(table string, pk row.Row, sess *session.Session) (row.Row, bool, error) {
	t, ns, err := c.tableDef(table)
	if err != nil {
		return nil, false, err
	}
	key, err := pkKey(t, pk)
	if err != nil {
		return nil, false, err
	}
	m, ok := c.router.Map(ns)
	if !ok {
		return nil, false, fmt.Errorf("scads: no partition map for %s", ns)
	}
	rng := m.Lookup(key)
	// Load is recorded before admission so shed demand stays visible
	// to the balancer: sustained skew should trigger rebalancing, not
	// vanish behind the front door.
	c.loads.Record(ns, rng.Start, key)
	release, err := c.admit(sess.Tenant(), admission.OpRead, 1)
	if err != nil {
		return nil, false, err
	}
	defer release()
	spec := c.specFor(table)
	bound := spec.Staleness
	tracker := c.pump.Tracker()

	var staleSkipped []string
	try := func(nodeID string) (row.Row, uint64, bool, bool) {
		val, ver, found, err := c.router.GetFrom(ns, nodeID, key)
		if err != nil {
			return nil, 0, false, false
		}
		if !sess.Acceptable(table, key, ver, found) {
			return nil, 0, false, false
		}
		if !found {
			return nil, ver, false, true
		}
		r, err := row.Decode(val)
		if err != nil {
			return nil, 0, false, false
		}
		return r, ver, true, true
	}

	// Rotate across replicas — reads spread load like the paper's
	// relaxed-consistency read path; unacceptable answers (session
	// floor, staleness) fall through to the next replica and
	// ultimately the primary.
	n := len(rng.Replicas)
	off := int(c.readRR.Add(1)) % n
	for i := 0; i < n; i++ {
		nodeID := rng.Replicas[(off+i)%n]
		if bound > 0 && tracker.Staleness(ns, nodeID) > bound {
			staleSkipped = append(staleSkipped, nodeID)
			continue
		}
		if r, ver, found, ok := try(nodeID); ok {
			sess.ObserveRead(table, key, ver, found)
			return r, found, nil
		}
	}

	// No fresh replica answered acceptably. Stale replicas remain:
	// the declared priority order arbitrates (§3.3.1), and the outcome
	// is noted for the director/operators either way.
	if len(staleSkipped) > 0 {
		if spec.Prefers(consistency.AxisReadConsistency, consistency.AxisAvailability) {
			c.contention.record(ContentionEvent{
				At: c.clk.Now(), Table: table,
				Won:        consistency.AxisReadConsistency,
				Sacrificed: consistency.AxisAvailability,
			})
			return nil, false, ErrStaleReplicas
		}
		for _, nodeID := range staleSkipped {
			if r, ver, found, ok := try(nodeID); ok {
				sess.ObserveRead(table, key, ver, found)
				c.contention.record(ContentionEvent{
					At: c.clk.Now(), Table: table,
					Won:         consistency.AxisAvailability,
					Sacrificed:  consistency.AxisReadConsistency,
					StaleServed: true,
				})
				return r, found, nil
			}
		}
	}
	return nil, false, partition.ErrNoReplicaAvailable
}

// GetMulti reads many rows by primary key in one coordinator pass:
// keys are grouped by node and fetched through one batched request
// per node (partition.Router.GetBatch), so a page assembling N rows
// costs a handful of round-trips instead of N. Reads go to each
// range's primary, so every result is at least as fresh as Get's;
// no session bookkeeping is applied. Results are positional: rows[i]
// and found[i] answer pks[i].
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
	m, ok := c.router.Map(ns)
	if !ok {
		return nil, nil, fmt.Errorf("scads: no partition map for %s", ns)
	}
	keys := make([][]byte, len(pks))
	for i, pk := range pks {
		key, err := pkKey(t, pk)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = key
		c.loads.Record(ns, m.Lookup(key).Start, key)
	}
	release, err := c.admit("", admission.OpRead, float64(len(pks)))
	if err != nil {
		return nil, nil, err
	}
	defer release()
	res, err := c.router.GetBatch(ns, keys, partition.ReadPrimary)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]row.Row, len(pks))
	found := make([]bool, len(pks))
	for i, gr := range res {
		if gr.Err != nil {
			return nil, nil, gr.Err
		}
		if !gr.Found {
			continue
		}
		r, err := row.Decode(gr.Value)
		if err != nil {
			return nil, nil, err
		}
		rows[i], found[i] = r, true
	}
	return rows, found, nil
}

// GetStall reads like GetSession but implements §3.3.1's stalling
// semantics: "if an update takes longer than the bound, a client query
// would stall until the updates can be confirmed". When the staleness
// bound is unsatisfiable and read-consistency is prioritised over
// availability, the read waits (polling on the cluster clock) for
// replication to catch up instead of failing immediately; it gives up
// with ErrStaleReplicas only after timeout. Namespaces that prioritise
// availability never stall — they serve stale data at once.
func (c *Cluster) GetStall(table string, pk row.Row, sess *session.Session, timeout time.Duration) (row.Row, bool, error) {
	start := c.clk.Now()
	deadline := start.Add(timeout)
	const pollEvery = 5 * time.Millisecond
	for {
		r, found, err := c.getSession(table, pk, sess)
		if err == nil || err != ErrStaleReplicas {
			c.record(start, err)
			return r, found, err
		}
		if !c.clk.Now().Add(pollEvery).Before(deadline) {
			c.record(start, err)
			return nil, false, err
		}
		<-c.clk.After(pollEvery)
	}
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
// a single bounded contiguous range read (§3.1). It reads whichever
// replica the router's rotation picks (partition.ReadAny): the table's
// staleness bound and session guarantees, which Get/GetSession/GetStall
// check replica by replica, are not applied to queries.
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
	norm := make(map[string]any, len(params))
	for k, v := range params {
		norm[k] = row.Normalize(v)
	}
	startKey, endKey, err := planner.ComputeBounds(plan, norm)
	if err != nil {
		return nil, err
	}

	if plan.Access == planner.AccessPKGet {
		if m, ok := c.router.Map(plan.Namespace); ok {
			c.loads.Record(plan.Namespace, m.Lookup(startKey).Start, startKey)
		}
		release, err := c.admit(tenant, admission.OpRead, 1)
		if err != nil {
			return nil, err
		}
		defer release()
		val, _, found, err := c.router.Get(plan.Namespace, startKey, partition.ReadAny)
		if err != nil || !found {
			return nil, err
		}
		r, err := row.Decode(val)
		if err != nil {
			return nil, err
		}
		return []row.Row{projectRow(r, plan.Project)}, nil
	}

	// A scan's load lands on every range it overlaps, not just the
	// first — otherwise a hot multi-range scan is invisible to the
	// balancer on all but its leading range and the planner never
	// splits or spreads the tail.
	if m, ok := c.router.Map(plan.Namespace); ok {
		for _, rng := range m.Overlapping(startKey, endKey) {
			k := startKey
			if rng.Start != nil && (k == nil || bytes.Compare(rng.Start, k) > 0) {
				k = rng.Start
			}
			c.loads.Record(plan.Namespace, rng.Start, k)
		}
	}

	release, err := c.admit(tenant, admission.OpScan, 1)
	if err != nil {
		return nil, err
	}
	defer release()

	// Scatter-gather scan with pushdown: residual filters and (when the
	// plan narrows stored rows) the projection travel with the request,
	// so storage nodes return pre-filtered, pre-projected rows instead
	// of the coordinator decoding every base row.
	opts := partition.ScanOptions{Limit: plan.Limit, Policy: partition.ReadAny, Tenant: tenant}
	filters, err := planner.ComputeFilters(plan, norm)
	if err != nil {
		return nil, err
	}
	opts.Preds = scanPreds(filters)
	if len(plan.Project) > 0 {
		cols := make([]string, len(plan.Project))
		for i, pc := range plan.Project {
			cols[i] = pc.Column
		}
		opts.Projection = cols
	}
	recs, err := c.router.ScanOpts(plan.Namespace, startKey, endKey, opts)
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
	out := make([]row.Row, 0, len(recs))
	for _, rec := range recs {
		r, err := row.Decode(rec.Value)
		if err != nil {
			return nil, err
		}
		if len(plan.Project) > 0 {
			r = projectRow(r, plan.Project)
		}
		out = append(out, r)
	}
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

// projectRow narrows a stored base row to the plan's projection (index
// accesses store pre-projected rows, so they skip this).
func projectRow(r row.Row, project []planner.ProjectCol) row.Row {
	if len(project) == 0 {
		return r
	}
	cols := make([]string, len(project))
	for i, pc := range project {
		cols[i] = pc.Column
	}
	return row.Project(r, cols)
}
