package scads

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"scads/internal/admission"
	"scads/internal/consistency"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
)

// Insert stores a new row (or fully replaces an existing one) in a
// table, honouring the table's declared write-consistency mode, and
// schedules asynchronous index maintenance and replication.
func (c *Cluster) Insert(table string, r row.Row) error {
	_, err := c.insertAs(table, r, "")
	return err
}

// insertAs is Insert accounted to a tenant (InsertSession routes the
// session's bound tenant here; plain Insert uses the default tenant).
// It returns the version assigned to the write, the session floor for
// read-your-writes.
func (c *Cluster) insertAs(table string, r row.Row, tenant string) (uint64, error) {
	start := c.clk.Now()
	var ver uint64
	release, err := c.admitWrite(table, r, tenant, 1)
	if err == nil {
		ver, err = c.write(table, r, writeUpsert)
	}
	release()
	c.record(start, err)
	return ver, err
}

// admitWrite gates one keyed write through the admission controller.
// Shed writes still record their load against the balancer's tracker
// so sustained skew triggers rebalancing instead of vanishing behind
// the front door. The returned release is always safe to call.
func (c *Cluster) admitWrite(table string, pk row.Row, tenant string, cost float64) (func(), error) {
	release, err := c.admit(tenant, admission.OpWrite, cost)
	if err == nil {
		return release, nil
	}
	if t, ns, terr := c.tableDef(table); terr == nil {
		if key, kerr := pkKey(t, pk); kerr == nil {
			if m, ok := c.router.Map(ns); ok {
				c.loads.Record(ns, m.Lookup(key).Start, key)
			}
		}
	}
	return release, err
}

// Update applies a full-row write with the same semantics as Insert
// (SCADS rows are documents; partial updates go through UpdateFunc).
func (c *Cluster) Update(table string, r row.Row) error {
	return c.Insert(table, r)
}

// InsertBatch stores many rows in one coordinator pass: rows are
// normalized and versioned together, current row images are fetched
// with one batched read per node, and the new records are delivered
// as one multi-record apply per primary (one RPC, one WAL write, and
// — on engines with synchronous writes — one shared group-commit
// fsync). Replication and asynchronous index maintenance are enqueued
// per row exactly as Insert does, so consistency semantics are
// unchanged; tables whose spec declares serializable or merge write
// modes fall back to the per-row conflict-aware path.
func (c *Cluster) InsertBatch(table string, rows []row.Row) error {
	start := c.clk.Now()
	err := c.insertBatch(table, rows)
	c.record(start, err)
	return err
}

func (c *Cluster) insertBatch(table string, rows []row.Row) error {
	if len(rows) == 0 {
		return nil
	}
	// One admission for the whole batch at its row-count cost; the
	// conflict-aware fallback below goes through c.write directly
	// (not Insert), so the batch is never double-charged.
	release, err := c.admit("", admission.OpWrite, float64(len(rows)))
	if err != nil {
		if t, ns, terr := c.tableDef(table); terr == nil {
			if m, ok := c.router.Map(ns); ok {
				for _, r := range rows {
					if key, kerr := pkKey(t, r); kerr == nil {
						c.loads.Record(ns, m.Lookup(key).Start, key)
					}
				}
			}
		}
		return err
	}
	defer release()
	t, ns, err := c.tableDef(table)
	if err != nil {
		return err
	}
	spec := c.specFor(table)
	if spec.Write == consistency.Serializable || spec.Write == consistency.MergeFunction {
		// Conflict-aware modes need an atomic read-modify-write per
		// row; the transport-level batcher still coalesces their RPCs.
		for _, r := range rows {
			if _, err := c.write(table, r, writeUpsert); err != nil {
				return err
			}
		}
		return nil
	}
	m, ok := c.router.Map(ns)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", ns)
	}

	normalized := make([]row.Row, len(rows))
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		nr, err := c.normalizeRow(t, r)
		if err != nil {
			return err
		}
		key, err := pkKey(t, nr)
		if err != nil {
			return err
		}
		normalized[i], keys[i] = nr, key
	}

	// Index maintenance needs each row's old image to retire stale
	// index entries; fetch them all with one batched read per node.
	curs, err := c.router.GetBatch(ns, keys, partition.ReadPrimary)
	if err != nil {
		return err
	}

	bound := c.stalenessBound(t.Name)
	type followUp struct {
		rec      record.Record
		replicas []string
		oldRow   row.Row
		newRow   row.Row
	}
	groups := make(map[string][]followUp) // primary node -> its rows
	// Later duplicates of a key within the batch must see the earlier
	// row as their old image, or index maintenance would never retire
	// the entries the earlier write created.
	prevInBatch := make(map[string]row.Row)
	for i, nr := range normalized {
		if curs[i].Err != nil {
			return curs[i].Err
		}
		var oldRow row.Row
		if curs[i].Found {
			if oldRow, err = row.Decode(curs[i].Value); err != nil {
				return err
			}
		}
		if prev, ok := prevInBatch[string(keys[i])]; ok {
			oldRow = prev
		}
		prevInBatch[string(keys[i])] = nr
		val, err := row.Encode(nr)
		if err != nil {
			return err
		}
		rec := record.Record{Key: keys[i], Value: val, Version: c.nextVersion()}
		rng := m.Lookup(keys[i])
		c.loads.Record(ns, rng.Start, keys[i])
		groups[rng.Replicas[0]] = append(groups[rng.Replicas[0]],
			followUp{rec: rec, replicas: rng.Replicas, oldRow: oldRow, newRow: nr})
	}
	// Apply the node groups concurrently. Replication and index
	// maintenance for a group are enqueued as soon as that group's
	// primary write lands — a failure of one node's group never
	// strands another group's applied records without follow-up.
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for node, ups := range groups {
		wg.Add(1)
		go func(node string, ups []followUp) {
			defer wg.Done()
			recs := make([]record.Record, len(ups))
			for i, u := range ups {
				recs[i] = u.rec
			}
			if c.router.Apply(ns, node, recs) != nil {
				// The group's one-shot delivery failed: route each
				// record through the request-execution core, which
				// re-reads the map and waits out a handoff, failover
				// or overload — or reports why it cannot. Replicas are
				// re-captured from the ranges that accepted the writes
				// so replication follows them.
				for i := range ups {
					rng, err := c.router.ApplyToPrimary(ns, ups[i].rec.Key, []record.Record{ups[i].rec})
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					ups[i].replicas = rng.Replicas
				}
			}
			for _, u := range ups {
				c.enqueueReplication(ns, m, u.rec.Key, u.rec, partition.Range{Replicas: u.replicas}, bound)
				c.maint.push(maintTask{
					table:    t.Name,
					oldRow:   u.oldRow,
					newRow:   u.newRow,
					deadline: c.clk.Now().Add(bound),
				})
			}
		}(node, ups)
	}
	wg.Wait()
	return firstErr
}

// UpdateFunc performs an atomic read-modify-write of the row with the
// given primary key: fn receives the current row (nil if absent) and
// returns the replacement (nil means delete). Under the Serializable
// write mode this is the paper's "writes must be serializable, as in a
// traditional RDBMS"; under other modes it is still atomic with
// respect to other UpdateFunc calls through this coordinator.
func (c *Cluster) UpdateFunc(table string, pk row.Row, fn func(cur row.Row) (row.Row, error)) error {
	start := c.clk.Now()
	err := c.updateFunc(table, pk, fn)
	c.record(start, err)
	return err
}

func (c *Cluster) updateFunc(table string, pk row.Row, fn func(cur row.Row) (row.Row, error)) error {
	release, err := c.admitWrite(table, pk, "", 1)
	if err != nil {
		release()
		return err
	}
	defer release()
	t, ns, err := c.tableDef(table)
	if err != nil {
		return err
	}
	key, err := pkKey(t, pk)
	if err != nil {
		return err
	}
	return c.serializer.Do(ns, key, func() error {
		cur, _, err := c.readRow(ns, key)
		if err != nil {
			return err
		}
		next, err := fn(cur)
		if err != nil {
			return err
		}
		if next == nil {
			if cur == nil {
				return nil
			}
			_, err := c.applyWrite(t, key, cur, nil)
			return err
		}
		normalized, err := c.normalizeRow(t, next)
		if err != nil {
			return err
		}
		_, err = c.applyWrite(t, key, cur, normalized)
		return err
	})
}

// Delete tombstones the row with the given primary key.
func (c *Cluster) Delete(table string, pk row.Row) error {
	_, err := c.deleteAs(table, pk, "")
	return err
}

// deleteAs is Delete accounted to a tenant (DeleteSession routes the
// session's bound tenant here). It returns the tombstone's version (0
// when the row did not exist and nothing was written).
func (c *Cluster) deleteAs(table string, pk row.Row, tenant string) (uint64, error) {
	start := c.clk.Now()
	var ver uint64
	release, err := c.admitWrite(table, pk, tenant, 1)
	if err == nil {
		ver, err = c.delete(table, pk)
	}
	release()
	c.record(start, err)
	return ver, err
}

func (c *Cluster) delete(table string, pk row.Row) (uint64, error) {
	t, ns, err := c.tableDef(table)
	if err != nil {
		return 0, err
	}
	key, err := pkKey(t, pk)
	if err != nil {
		return 0, err
	}
	var ver uint64
	err = c.serializer.Do(ns, key, func() error {
		cur, _, err := c.readRow(ns, key)
		if err != nil {
			return err
		}
		if cur == nil {
			return nil
		}
		ver, err = c.applyWrite(t, key, cur, nil)
		return err
	})
	return ver, err
}

type writeKind int

const (
	writeUpsert writeKind = iota
)

// write implements Insert/Update: mode-dependent conflict handling,
// then the common apply path. It returns the version assigned to the
// write.
func (c *Cluster) write(table string, r row.Row, _ writeKind) (uint64, error) {
	t, ns, err := c.tableDef(table)
	if err != nil {
		return 0, err
	}
	normalized, err := c.normalizeRow(t, r)
	if err != nil {
		return 0, err
	}
	key, err := pkKey(t, normalized)
	if err != nil {
		return 0, err
	}
	spec := c.specFor(table)

	switch spec.Write {
	case consistency.Serializable, consistency.MergeFunction:
		// Both modes need the current value atomically.
		var ver uint64
		err := c.serializer.Do(ns, key, func() error {
			cur, _, err := c.readRow(ns, key)
			if err != nil {
				return err
			}
			next := normalized
			if spec.Write == consistency.MergeFunction && cur != nil {
				merged, err := c.mergeRows(spec.MergeName, cur, normalized)
				if err != nil {
					return err
				}
				next = merged
			}
			ver, err = c.applyWrite(t, key, cur, next)
			return err
		})
		return ver, err
	default: // last-write-wins
		cur, _, err := c.readRow(ns, key)
		if err != nil {
			return 0, err
		}
		return c.applyWrite(t, key, cur, normalized)
	}
}

// mergeRows resolves a write conflict through the registered merge
// function (§3.3.1: "the developer may specify a function that will
// merge conflicting writes"). A row-level merge (RegisterRowMerge)
// receives both whole rows and returns the winner; otherwise the
// byte-level function registered under the same name is applied
// column-wise to differing string columns. Commutative merges make
// replicas converge regardless of write order.
func (c *Cluster) mergeRows(mergeName string, old, new row.Row) (row.Row, error) {
	if fn, ok := c.lookupRowMerge(mergeName); ok {
		merged := fn(old.Clone(), new.Clone())
		if merged == nil {
			return new, nil
		}
		return merged, nil
	}
	fn, err := c.merges.Lookup(mergeName)
	if err != nil {
		return nil, err
	}
	merged := new.Clone()
	for col, ov := range old {
		nv, ok := merged[col]
		if !ok {
			merged[col] = ov
			continue
		}
		os, oldIsStr := ov.(string)
		ns, newIsStr := nv.(string)
		if oldIsStr && newIsStr && os != ns {
			merged[col] = string(fn([]byte(os), []byte(ns)))
		}
	}
	return merged, nil
}

// enqueueReplication schedules rec for delivery to the secondaries of
// the range that acknowledged it, then re-reads the partition map and
// also covers any member a racing reconfiguration added in between. A
// migration's flip-time Rebind clones only updates that are already
// queued, so an update enqueued just after a flip — against the
// pre-flip replica set it captured before the apply — would otherwise
// permanently miss the range's new members; the post-enqueue re-read
// closes that window from the other side (duplicates are harmless:
// applies are last-write-wins by version, and a delivery to a node
// that lost the range bounces off its residual fence).
func (c *Cluster) enqueueReplication(ns string, m *partition.Map, key []byte, rec record.Record, acked partition.Range, bound time.Duration) {
	if len(acked.Replicas) > 1 {
		c.pump.Enqueue(ns, rec, acked.Replicas[1:], bound)
	}
	cur := m.Lookup(key)
	var added []string
	for _, id := range cur.Replicas {
		seen := false
		for _, old := range acked.Replicas {
			if old == id {
				seen = true
				break
			}
		}
		if !seen {
			added = append(added, id)
		}
	}
	if len(added) > 0 {
		c.pump.Enqueue(ns, rec, added, bound)
	}
}

// applyWrite is the common write path: version the record, write the
// table primary, enqueue replication to secondaries, and enqueue
// asynchronous index maintenance with the namespace's staleness
// deadline. It returns the version assigned to the record — the exact
// session floor for read-your-writes (an upper bound like the
// coordinator's current HLC would overshoot under concurrent writers
// and make the session reject even the primary's answer).
func (c *Cluster) applyWrite(t *query.TableDef, key []byte, oldRow, newRow row.Row) (uint64, error) {
	ns := planner.TableNamespace(t.Name)
	rec := record.Record{Key: key, Version: c.nextVersion()}
	if newRow == nil {
		rec.Tombstone = true
	} else {
		val, err := row.Encode(newRow)
		if err != nil {
			return 0, err
		}
		rec.Value = val
	}

	m, ok := c.router.Map(ns)
	if !ok {
		return 0, fmt.Errorf("scads: no partition map for %s", ns)
	}
	c.loads.Record(ns, m.Lookup(key).Start, key)
	rng, err := c.router.ApplyToPrimary(ns, key, []record.Record{rec})
	if err != nil {
		return 0, err
	}
	bound := c.stalenessBound(t.Name)
	c.enqueueReplication(ns, m, key, rec, rng, bound)

	// Asynchronous index maintenance (§3.2): enqueue the base change;
	// DrainMaintenance (or the background pump) computes and applies
	// the bounded index updates before the staleness deadline.
	c.maint.push(maintTask{
		table:    t.Name,
		oldRow:   oldRow,
		newRow:   newRow,
		deadline: c.clk.Now().Add(bound),
	})
	return rec.Version, nil
}

// readRow fetches the current row from the primary (nil when absent).
func (c *Cluster) readRow(ns string, key []byte) (row.Row, uint64, error) {
	val, ver, found, err := c.router.Get(ns, key, partition.ReadPrimary)
	if err != nil || !found {
		return nil, 0, err
	}
	r, err := row.Decode(val)
	if err != nil {
		return nil, 0, err
	}
	return r, ver, nil
}

// DrainMaintenance synchronously runs up to budget pending index
// maintenance tasks in deadline order, returning how many ran.
// Simulations call this each tick; FlushAll drains everything.
func (c *Cluster) DrainMaintenance(budget int) (int, error) {
	c.mu.RLock()
	views := c.views
	c.mu.RUnlock()
	if views == nil {
		return 0, nil
	}
	n := 0
	for n < budget {
		task, ok := c.maint.pop()
		if !ok {
			return n, nil
		}
		n++
		muts, err := views.Mutations(task.table, task.oldRow, task.newRow)
		if err != nil {
			return n, fmt.Errorf("scads: maintenance for %s: %w", task.table, err)
		}
		for _, mut := range muts {
			if err := c.applyIndexMutation(mut.Namespace, mut.Key, mut.Value); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func (c *Cluster) applyIndexMutation(ns string, key []byte, val row.Row) error {
	rec := record.Record{Key: key, Version: c.nextVersion()}
	if val == nil {
		rec.Tombstone = true
	} else {
		enc, err := row.Encode(val)
		if err != nil {
			return err
		}
		rec.Value = enc
	}
	m, ok := c.router.Map(ns)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", ns)
	}
	rng, err := c.router.ApplyToPrimary(ns, key, []record.Record{rec})
	if err != nil {
		return err
	}
	c.enqueueReplication(ns, m, key, rec, rng, c.cfg.DefaultStaleness)
	return nil
}

// FlushAll drains all pending maintenance and replication — the "wait
// for quiescence" helper used by tests and examples.
func (c *Cluster) FlushAll() error {
	for {
		n, err := c.DrainMaintenance(1024)
		if err != nil {
			return err
		}
		r := c.pump.Drain(4096)
		if n == 0 && r == 0 {
			return nil
		}
	}
}

// MaintenanceBacklog reports pending maintenance tasks and how many
// are at risk of missing their deadline within margin.
func (c *Cluster) MaintenanceBacklog(margin time.Duration) (pending, atRisk int) {
	return c.maint.Len(), c.maint.AtRisk(c.clk.Now(), margin)
}

// --- deadline-ordered maintenance queue ---

type maintTask struct {
	table    string
	oldRow   row.Row
	newRow   row.Row
	deadline time.Time
	seq      int64
}

type maintQueue struct {
	mu  sync.Mutex
	h   maintHeap
	seq int64
}

func newMaintQueue() *maintQueue { return &maintQueue{} }

func (q *maintQueue) push(t maintTask) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	t.seq = q.seq
	heap.Push(&q.h, t)
}

func (q *maintQueue) pop() (maintTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return maintTask{}, false
	}
	return heap.Pop(&q.h).(maintTask), true
}

// Len reports queue depth.
func (q *maintQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// AtRisk counts tasks whose deadline is within margin of now.
func (q *maintQueue) AtRisk(now time.Time, margin time.Duration) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	limit := now.Add(margin)
	n := 0
	for _, t := range q.h {
		if !t.deadline.After(limit) {
			n++
		}
	}
	return n
}

type maintHeap []maintTask

func (h maintHeap) Len() int { return len(h) }
func (h maintHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h maintHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *maintHeap) Push(x any)   { *h = append(*h, x.(maintTask)) }
func (h *maintHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// tableDef resolves a table by name to its definition and its storage
// namespace (the string DefineSchema built once, not a fresh one).
func (c *Cluster) tableDef(table string) (*query.TableDef, string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.schema == nil {
		return nil, "", ErrNoSchema
	}
	t, ok := c.schema.Tables[table]
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	return t, c.tableNS[table], nil
}

// normalizeRow widens literal types and validates against the table's
// columns; unknown columns are rejected, missing non-key columns are
// allowed (sparse rows).
func (c *Cluster) normalizeRow(t *query.TableDef, r row.Row) (row.Row, error) {
	out := make(row.Row, len(r))
	for col, v := range r {
		def, ok := t.Column(col)
		if !ok {
			return nil, fmt.Errorf("scads: table %s has no column %q", t.Name, col)
		}
		nv := row.Normalize(v)
		if err := row.CheckType(def.Type, nv); err != nil {
			return nil, fmt.Errorf("scads: table %s: %w", t.Name, err)
		}
		out[col] = nv
	}
	for _, pk := range t.PrimaryKey {
		if _, ok := out[pk]; !ok {
			return nil, fmt.Errorf("scads: table %s: primary key column %q missing", t.Name, pk)
		}
	}
	return out, nil
}

// pkKey builds the storage key from a row containing the primary key
// columns.
func pkKey(t *query.TableDef, r row.Row) ([]byte, error) {
	return row.EncodeKey(r, t.PrimaryKey)
}
