package scads

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"
	"time"

	"scads/internal/admission"
	"scads/internal/consistency"
	"scads/internal/partition"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
)

// Every write runs one pipeline. Stage: resolve the table, normalize
// the row, encode its key. Old image: read the stored row from its
// primary (oldImage, oldImages) — only when something consumes it: an index or
// view derived from the table, a serializable or merge write mode, a
// caller's function (UpdateFunc), or Delete's "was there a row?". A
// single-row write that reads holds the key's serializer lock from the
// read to the commit. Commit: deliver the versioned records to their
// primaries, schedule replication, and queue the base change for
// asynchronous index upkeep (§3.2) — all of it in commit, which index
// upkeep itself goes back through.

// Insert stores a new row (or fully replaces an existing one) in a
// table under the table's declared write mode. A last-write-wins
// insert into a table nothing is derived from is one round trip to the
// primary; otherwise the old row is read first, under the key's lock,
// and the change is queued for asynchronous index maintenance.
// Replication to the secondaries is asynchronous under the table's
// staleness bound either way.
func (c *Cluster) Insert(table string, r row.Row) error {
	_, err := c.insertAs(table, r, "")
	return err
}

// insertAs is Insert accounted to a tenant (InsertSession routes the
// session's bound tenant here; plain Insert uses the default tenant).
// It returns the version assigned to the write — the exact session
// floor for read-your-writes (an upper bound like the coordinator's
// current HLC would overshoot under concurrent writers and make the
// session reject even the primary's answer).
func (c *Cluster) insertAs(table string, r row.Row, tenant string) (uint64, error) {
	return c.admitted(table, tenant, func(t *query.TableDef, ns string) (uint64, error) {
		return c.upsert(t, ns, r)
	}, r)
}

// admitted runs one write of the given rows (or primary keys) as one
// operation under SLA accounting and admission control — one admission
// at its row-count cost — handing it the resolved table. Shed writes
// still record their load against the balancer's tracker so sustained
// skew triggers rebalancing instead of vanishing behind the front door.
func (c *Cluster) admitted(table, tenant string, write func(t *query.TableDef, ns string) (uint64, error), rows ...row.Row) (uint64, error) {
	start := c.clk.Now()
	var ver uint64
	t, ns, terr := c.tableDef(table)
	release, err := c.admit(tenant, admission.OpWrite, float64(len(rows)))
	if err == nil {
		if err = terr; err == nil {
			ver, err = write(t, ns)
		}
	} else if m, ok := c.router.Map(ns); ok && terr == nil {
		for _, r := range rows {
			if key, kerr := pkKey(t, r); kerr == nil {
				c.loads.Record(ns, m.Lookup(key).Start, key)
			}
		}
	}
	release()
	c.record(start, err)
	return ver, err
}

// Update applies a full-row write with the same semantics as Insert
// (SCADS rows are documents; partial updates go through UpdateFunc).
func (c *Cluster) Update(table string, r row.Row) error {
	return c.Insert(table, r)
}

// upsert stages one full-row write and sends it down the pipeline under
// the table's write mode: serializable and merge writes always read
// the old image (merge folds it into the new row), last-write-wins
// ones only when something is derived from the table.
func (c *Cluster) upsert(t *query.TableDef, ns string, r row.Row) (uint64, error) {
	nr, err := c.normalizeRow(t, r)
	if err != nil {
		return 0, err
	}
	key, err := pkKey(t, nr)
	if err != nil {
		return 0, err
	}
	spec := c.specFor(t.Name)
	return c.writeKey(t, ns, key, spec.Write == consistency.LastWriteWins, func(old row.Row) (row.Row, error) {
		if spec.Write == consistency.MergeFunction && old != nil {
			return c.mergeRows(spec.MergeName, old, nr)
		}
		return nr, nil
	})
}

// InsertBatch stores many rows in one coordinator pass: rows are
// normalized and versioned together, the old images index maintenance
// needs are fetched with one batched read per node (none when nothing
// is derived from the table), and the new records are delivered as one
// multi-record apply per primary (one RPC, one WAL write, and — on
// engines with synchronous writes — one shared group-commit fsync).
// Replication and asynchronous index maintenance are enqueued per row
// exactly as Insert does. The batch takes no per-key locks (it would
// need many serializer stripes at once): a batch racing another writer
// of the same key may queue index maintenance against an old image
// that writer has already replaced, so keep concurrent writers of one
// key on Insert. Tables whose spec declares serializable or merge
// write modes fall back to the per-row conflict-aware path.
func (c *Cluster) InsertBatch(table string, rows []row.Row) error {
	if len(rows) == 0 {
		return nil
	}
	// One admission for the whole batch at its row-count cost; the
	// conflict-aware fallback goes through c.upsert directly (not
	// Insert), so the batch is never double-charged.
	_, err := c.admitted(table, "", func(t *query.TableDef, ns string) (uint64, error) {
		return 0, c.insertBatch(t, ns, rows)
	}, rows...)
	return err
}

func (c *Cluster) insertBatch(t *query.TableDef, ns string, rows []row.Row) (err error) {
	if c.specFor(t.Name).Write != consistency.LastWriteWins {
		// Conflict-aware modes need an atomic read-modify-write per
		// row.
		for _, r := range rows {
			if _, err := c.upsert(t, ns, r); err != nil {
				return err
			}
		}
		return nil
	}

	normalized := make([]row.Row, len(rows))
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		if normalized[i], err = c.normalizeRow(t, r); err != nil {
			return err
		}
		if keys[i], err = pkKey(t, normalized[i]); err != nil {
			return err
		}
	}
	var tasks []maintTask
	if c.maintained(t.Name) {
		olds, err := c.oldImages(ns, keys)
		if err != nil {
			return err
		}
		// Later duplicates of a key within the batch must see the earlier
		// row as their old image, or index maintenance would never retire
		// the entries the earlier write created.
		prevInBatch := make(map[string]row.Row)
		tasks = make([]maintTask, len(rows))
		for i, nr := range normalized {
			old, dup := prevInBatch[string(keys[i])]
			if !dup {
				old = olds[i]
			}
			prevInBatch[string(keys[i])] = nr
			tasks[i] = maintTask{table: t.Name, oldRow: old, newRow: nr}
		}
	}
	recs := make([]record.Record, len(rows))
	for i, nr := range normalized {
		if recs[i], err = c.newRecord(keys[i], nr); err != nil {
			return err
		}
	}
	return c.commit(ns, recs, c.stalenessBound(t.Name), tasks)
}

// UpdateFunc performs an atomic read-modify-write of the row with the
// given primary key: fn receives the current row (nil if absent) and
// returns the replacement (nil means delete). Under the Serializable
// write mode this is the paper's "writes must be serializable, as in a
// traditional RDBMS"; under other modes it is still atomic with
// respect to every other write through this coordinator that reads the
// row first.
func (c *Cluster) UpdateFunc(table string, pk row.Row, fn func(cur row.Row) (row.Row, error)) error {
	_, err := c.admitted(table, "", func(t *query.TableDef, ns string) (uint64, error) {
		key, err := pkKey(t, pk)
		if err != nil {
			return 0, err
		}
		return c.writeKey(t, ns, key, false, func(old row.Row) (row.Row, error) {
			next, err := fn(old)
			if err != nil || next == nil {
				return nil, err
			}
			return c.normalizeRow(t, next)
		})
	}, pk)
	return err
}

// Delete tombstones the row with the given primary key.
func (c *Cluster) Delete(table string, pk row.Row) error {
	_, err := c.deleteAs(table, pk, "")
	return err
}

// deleteAs is Delete accounted to a tenant (DeleteSession routes the
// session's bound tenant here). It returns the tombstone's version (0
// when the row did not exist and nothing was written) — which is why a
// delete always reads the old image, even from a table nothing is
// derived from.
func (c *Cluster) deleteAs(table string, pk row.Row, tenant string) (uint64, error) {
	return c.admitted(table, tenant, func(t *query.TableDef, ns string) (uint64, error) {
		key, err := pkKey(t, pk)
		if err != nil {
			return 0, err
		}
		return c.writeKey(t, ns, key, false, func(row.Row) (row.Row, error) { return nil, nil })
	}, pk)
}

// writeKey is the old-image and commit stages for one staged key. next
// maps the row's old image (nil when absent) to its replacement; a nil
// replacement deletes, and deleting an absent row writes nothing and
// reports version 0. blind says next ignores its argument: the old
// image is then read only if something is derived from the table, and
// otherwise the write is a single round trip. Every path that does read
// holds the key's lock from the read to the commit, so two writers of
// one key cannot both hand index maintenance the same old image (the
// loser's index entries would never be retired).
func (c *Cluster) writeKey(t *query.TableDef, ns string, key []byte, blind bool, next func(old row.Row) (row.Row, error)) (uint64, error) {
	maintained := c.maintained(t.Name)
	put := func(old row.Row) (uint64, error) {
		nr, err := next(old)
		if err != nil || (old == nil && nr == nil) {
			return 0, err
		}
		rec, err := c.newRecord(key, nr)
		if err != nil {
			return 0, err
		}
		var tasks []maintTask
		if maintained {
			tasks = []maintTask{{table: t.Name, oldRow: old, newRow: nr}}
		}
		return rec.Version, c.commit(ns, []record.Record{rec}, c.stalenessBound(t.Name), tasks)
	}
	if blind && !maintained {
		return put(nil)
	}
	var ver uint64
	err := c.serializer.Do(ns, key, func() error {
		old, err := c.oldImage(ns, key)
		if err == nil {
			ver, err = put(old)
		}
		return err
	})
	return ver, err
}

// maintained reports whether any index or view is derived from table,
// which the compiled schema decided at DefineSchema time.
func (c *Cluster) maintained(table string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.views.Maintains(table)
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

// The old-image stage, the pipeline's only reads: oldImage for one
// key, oldImages for a batch.

// oldImage fetches the row stored under key from its primary (nil when
// absent).
func (c *Cluster) oldImage(ns string, key []byte) (row.Row, error) {
	val, _, found, err := c.router.Get(ns, key, partition.ReadPrimary)
	if err != nil || !found {
		return nil, err
	}
	return row.Decode(val)
}

// oldImages is oldImage for many keys, with one batched read per node.
func (c *Cluster) oldImages(ns string, keys [][]byte) ([]row.Row, error) {
	got, err := c.router.GetBatch(ns, keys)
	if err != nil {
		return nil, err
	}
	olds := make([]row.Row, len(keys))
	for i, g := range got {
		if g.Err != nil {
			return nil, g.Err
		}
		if g.Found {
			if olds[i], err = row.Decode(g.Value); err != nil {
				return nil, err
			}
		}
	}
	return olds, nil
}

// newRecord versions one write of key: val encoded, or a tombstone when
// val is nil.
func (c *Cluster) newRecord(key []byte, val row.Row) (record.Record, error) {
	rec := record.Record{Key: key, Tombstone: val == nil}
	if val != nil {
		enc, err := row.Encode(val)
		if err != nil {
			return rec, err
		}
		rec.Value = enc
	}
	rec.Version = c.nextVersion()
	return rec, nil
}

// commit is the one way records reach storage: base-table writes and
// the index mutations derived from them alike. recs are in version
// order and stay so within each primary's group. All of them usually
// share a primary; that group goes out inline as one multi-record
// apply (one RPC, one WAL write). Records spanning several primaries
// are split per primary and the groups committed concurrently, so a
// failure of one node's group never strands another group's applied
// records without follow-up. Each record, once its primary has it, is
// scheduled for replication under bound and — when tasks (parallel to
// recs, or nil) says the table has dependents — its base change is
// queued for index maintenance with bound as the deadline.
func (c *Cluster) commit(ns string, recs []record.Record, bound time.Duration, tasks []maintTask) error {
	m, ok := c.router.Map(ns)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", ns)
	}
	var solo [1]partition.Range
	acked := solo[:]
	if len(recs) > 1 {
		acked = make([]partition.Range, len(recs))
	}
	single := true
	for i, rec := range recs {
		acked[i] = m.Lookup(rec.Key)
		single = single && acked[i].Replicas[0] == acked[0].Replicas[0]
	}
	if !single {
		// Split off the records that share the first one's primary and
		// commit them here while the rest, split the same way, commit
		// concurrently.
		var mine, rest struct {
			recs  []record.Record
			tasks []maintTask
		}
		for i, rec := range recs {
			g := &rest
			if acked[i].Replicas[0] == acked[0].Replicas[0] {
				g = &mine
			}
			g.recs = append(g.recs, rec)
			if tasks != nil {
				g.tasks = append(g.tasks, tasks[i])
			}
		}
		restErr := make(chan error, 1)
		go func() { restErr <- c.commit(ns, rest.recs, bound, rest.tasks) }()
		err := c.commit(ns, mine.recs, bound, mine.tasks)
		if rerr := <-restErr; err == nil {
			err = rerr
		}
		return err
	}

	// When the group's one-shot delivery fails, each record goes through
	// the request-execution core, which re-reads the map and waits out a
	// handoff, failover or overload — or reports why it cannot. Replicas
	// are re-captured from the ranges that accepted the writes so
	// replication follows them.
	err := c.router.Apply(ns, acked[0].Replicas[0], recs)
	for i, rec := range recs {
		c.loads.Record(ns, acked[i].Start, rec.Key)
		if err != nil {
			var ferr error
			if acked[i], ferr = c.router.ApplyToPrimary(ns, rec.Key, recs[i:i+1]); ferr != nil {
				return ferr
			}
		}
		c.enqueueReplication(ns, m, rec, acked[i], bound)
		if tasks != nil {
			tasks[i].deadline = c.clk.Now().Add(bound)
			c.maint.push(tasks[i])
		}
	}
	return nil
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
func (c *Cluster) enqueueReplication(ns string, m *partition.Map, rec record.Record, acked partition.Range, bound time.Duration) {
	if len(acked.Replicas) > 1 {
		c.pump.Enqueue(ns, rec, acked.Replicas[1:], bound)
	}
	cur := m.Lookup(rec.Key)
	var added []string
	for _, id := range cur.Replicas {
		if !slices.Contains(acked.Replicas, id) {
			added = append(added, id)
		}
	}
	if len(added) > 0 {
		c.pump.Enqueue(ns, rec, added, bound)
	}
}

// DrainMaintenance synchronously runs up to budget pending index
// maintenance tasks in deadline order, returning how many completed.
// A task's index mutations go through commit, one call per index
// namespace, so mutations bound for the same primary share an apply,
// and they replicate under the staleness bound of the table whose
// change they derive from. A task that fails — a lookup or an apply
// outlasting its retry budget during a failover, say — goes back on
// the queue with its deadline and place kept, and the error is
// returned: the index is late, never silently divergent (re-running a
// half-applied task is harmless, index entries are overwritten by
// version). Simulations call this each tick; FlushAll drains
// everything.
func (c *Cluster) DrainMaintenance(budget int) (int, error) {
	for n := 0; n < budget; n++ {
		task, ok := c.maint.pop()
		if !ok {
			return n, nil
		}
		if err := c.maintain(task); err != nil {
			c.maint.requeue(task)
			return n, err
		}
	}
	return budget, nil
}

// maintain computes one base change's index mutations and commits them.
// (A queued task implies a defined schema, so c.views is set.)
func (c *Cluster) maintain(task maintTask) error {
	c.mu.RLock()
	views := c.views
	c.mu.RUnlock()
	muts, err := views.Mutations(task.table, task.oldRow, task.newRow)
	if err != nil {
		return fmt.Errorf("scads: maintenance for %s: %w", task.table, err)
	}
	bound := c.stalenessBound(task.table)
	for len(muts) > 0 {
		ns := muts[0].Namespace
		recs := make([]record.Record, 0, len(muts))
		rest := muts[:0]
		for _, mut := range muts {
			if mut.Namespace != ns {
				rest = append(rest, mut)
				continue
			}
			rec, err := c.newRecord(mut.Key, mut.Value)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
		if err := c.commit(ns, recs, bound, nil); err != nil {
			return err
		}
		muts = rest
	}
	return nil
}

// FlushAll drains all pending maintenance and replication — the "wait
// for quiescence" helper used by tests and examples. Under
// StartBackground it also waits for what it cannot drain itself: the
// rounds the replication workers have in flight, and the failed
// deliveries waiting out a retry backoff, which the workers deliver or
// give up on within MaxAttempts backoffs. Without it (a simulation's
// clock only moves when the caller moves it) such retries stay parked
// and show in Pump().Stats().Pending.
func (c *Cluster) FlushAll() error {
	for {
		n, err := c.DrainMaintenance(1024)
		if err != nil {
			return err
		}
		r := c.pump.Drain(4096)
		if n != 0 || r != 0 {
			continue
		}
		c.bgMu.Lock()
		background := c.bgStop != nil
		c.bgMu.Unlock()
		if !background || c.pump.Stats().Pending == 0 {
			return nil
		}
		c.clk.Sleep(time.Millisecond)
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

// requeue puts back a popped task that could not be completed, keeping
// its deadline and seq so it runs next in its original order.
func (q *maintQueue) requeue(t maintTask) {
	q.mu.Lock()
	defer q.mu.Unlock()
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
