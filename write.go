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
	"scads/internal/rpc"
)

// Every write runs one pipeline. Stage: resolve the table, normalize
// the row, encode its key. Old row: read from the primary only when the
// new row is computed from it (UpdateFunc, serializable and merge
// writes). Commit: deliver the versioned records to their primaries as
// a swap, which answers the record each displaced, whenever something
// consumes that answer (a bound on the version read, index upkeep,
// Delete's "was there a row?"), else as an apply; then schedule
// replication and, for a table with dependents, queue each displaced
// row for asynchronous index upkeep (§3.2), which reads the key's
// current row when it runs and goes back through commit. The primary's
// swap is the only place writers of one key meet: nothing here locks a
// key.

// Insert stores a new row (or fully replaces an existing one) in a
// table under the table's declared write mode. A last-write-wins
// insert is one round trip to the primary: an apply into a table
// nothing is derived from, otherwise a swap whose displaced row queues
// the change for asynchronous index maintenance. Serializable and
// merge inserts read the old row first and swap bounded by its
// version. Replication to the secondaries is asynchronous under the
// table's staleness bound either way.
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
// the table's write mode: serializable and merge writes read the old
// row (merge folds it into the new row), last-write-wins ones do not.
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
	return c.writeKey(t, ns, key, spec.Write != consistency.LastWriteWins, func(old row.Row) (row.Row, error) {
		if spec.Write == consistency.MergeFunction && old != nil {
			return c.mergeRows(spec.MergeName, old, nr)
		}
		return nr, nil
	})
}

// InsertBatch stores many rows in one coordinator pass: rows are
// normalized and versioned together and delivered as one multi-record
// write per primary (one RPC, one WAL write, and — on engines with
// synchronous writes — one shared group-commit fsync). Into a table
// something is derived from that write is a swap, whose displaced rows
// queue index maintenance exactly as Insert's do; a later row of a key
// displaces an earlier one of the same batch. Replication is enqueued
// per row. Tables whose spec declares serializable or merge write
// modes fall back to the per-row path.
func (c *Cluster) InsertBatch(table string, rows []row.Row) error {
	if len(rows) == 0 {
		return nil
	}
	// One admission for the whole batch at its row-count cost; the
	// per-row fallback goes through c.upsert directly (not Insert), so
	// the batch is never double-charged.
	_, err := c.admitted(table, "", func(t *query.TableDef, ns string) (uint64, error) {
		return 0, c.insertBatch(t, ns, rows)
	}, rows...)
	return err
}

func (c *Cluster) insertBatch(t *query.TableDef, ns string, rows []row.Row) error {
	if c.specFor(t.Name).Write != consistency.LastWriteWins {
		for _, r := range rows {
			if _, err := c.upsert(t, ns, r); err != nil {
				return err
			}
		}
		return nil
	}
	recs := make([]record.Record, len(rows))
	for i, r := range rows {
		nr, err := c.normalizeRow(t, r)
		if err != nil {
			return err
		}
		key, err := pkKey(t, nr)
		if err != nil {
			return err
		}
		if recs[i], err = c.newRecord(key, nr); err != nil {
			return err
		}
	}
	_, err := c.commit(ns, recs, c.stalenessBound(t.Name), c.deliveryFor(t.Name))
	return err
}

// UpdateFunc performs an atomic read-modify-write of the row with the
// given primary key: fn receives the current row (nil if absent) and
// returns the replacement (nil means delete). Under the Serializable
// write mode this is the paper's "writes must be serializable, as in a
// traditional RDBMS"; under every mode it is atomic with respect to
// every other write of the row, because the primary applies the
// replacement only if the row is still the one fn saw. fn may run more
// than once; the write fails with ErrWriteConflict when other writers
// keep landing first.
func (c *Cluster) UpdateFunc(table string, pk row.Row, fn func(cur row.Row) (row.Row, error)) error {
	_, err := c.admitted(table, "", func(t *query.TableDef, ns string) (uint64, error) {
		key, err := pkKey(t, pk)
		if err != nil {
			return 0, err
		}
		return c.writeKey(t, ns, key, true, func(old row.Row) (row.Row, error) {
			next, err := fn(old)
			if err != nil || next == nil {
				return nil, err
			}
			return c.normalizeRow(t, next)
		})
	}, pk)
	return err
}

// Delete tombstones the row with the given primary key: one swap, which
// answers whether there was a row.
func (c *Cluster) Delete(table string, pk row.Row) error {
	_, err := c.deleteAs(table, pk, "")
	return err
}

// deleteAs is Delete accounted to a tenant (DeleteSession routes the
// session's bound tenant here). It returns the tombstone's version (0
// when the row did not exist and nothing was written) — which is why a
// delete always swaps, even in a table nothing is derived from.
func (c *Cluster) deleteAs(table string, pk row.Row, tenant string) (uint64, error) {
	return c.admitted(table, tenant, func(t *query.TableDef, ns string) (uint64, error) {
		key, err := pkKey(t, pk)
		if err != nil {
			return 0, err
		}
		return c.writeKey(t, ns, key, false, func(row.Row) (row.Row, error) { return nil, nil })
	}, pk)
}

// writeKey writes one staged key. next maps the key's row (nil when
// absent) to its replacement; a nil replacement deletes, and deleting
// an absent row writes nothing and reports version 0. reads says next
// reads its argument: the row is then read from the primary first, with
// a get that waits out a failover (a secondary's older row would lose
// an update), and the swap is bounded by the version read, so the
// primary applies it only if no other write of the key landed since. A
// refused swap answers the record that did land, and next runs again on
// it, until rpc.DownRetryBudget has passed on the cluster clock; then
// the write fails with ErrWriteConflict. A write that does not read its
// row is one round trip: an apply when nothing consumes the displaced
// row, else a swap.
func (c *Cluster) writeKey(t *query.TableDef, ns string, key []byte, reads bool, next func(old row.Row) (row.Row, error)) (uint64, error) {
	how := c.deliveryFor(t.Name)
	var old row.Row
	var giveUp time.Time
	if reads {
		val, ver, found, err := c.router.Get(ns, key, partition.WritePrimary)
		if err != nil {
			return 0, err
		}
		if old, err = decodeRow(val, found, nil); err != nil {
			return 0, err
		}
		how.since = ver + 1
		giveUp = c.clk.Now().Add(rpc.DownRetryBudget)
	}
	for {
		nr, err := next(old)
		if err != nil || (reads && old == nil && nr == nil) {
			return 0, err
		}
		rec, err := c.newRecord(key, nr)
		if err != nil {
			return 0, err
		}
		how.swap = reads || nr == nil || how.upkeep != ""
		displaced, err := c.commit(ns, []record.Record{rec}, c.stalenessBound(t.Name), how)
		if err != nil || !how.swap {
			return rec.Version, err
		}
		d := displaced[0]
		if !how.refuses(d) {
			if nr == nil && d.Tombstone {
				return 0, nil // there was no row to delete
			}
			return rec.Version, nil
		}
		if !c.clk.Now().Before(giveUp) {
			return 0, ErrWriteConflict
		}
		if old, err = decodeRow(d.Value, !d.Tombstone, nil); err != nil {
			return 0, err
		}
		how.since = d.Version + 1
	}
}

// deliveryFor is how a last-write-wins write of table that consumes
// nothing of the row it displaces reaches storage: a swap queueing that
// row's index upkeep when any index or view is derived from table
// (which the compiled schema decided at DefineSchema time), else an
// apply.
func (c *Cluster) deliveryFor(table string) delivery {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.views.Maintains(table) {
		return delivery{swap: true, upkeep: table}
	}
	return delivery{}
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
	rec.Version = c.versions.Next()
	return rec, nil
}

// delivery is how commit hands records to their primaries.
type delivery struct {
	// swap asks each primary for the record each record displaced;
	// otherwise the records go as an apply.
	swap bool
	// since bounds a swap's stored versions (0: none).
	since uint64
	// upkeep names the table whose index upkeep each displaced row is
	// queued for ("": none; only with swap).
	upkeep string
}

// refuses reports whether a swap under how was refused, having found
// displaced stored: a record over the bound applies nothing.
func (how delivery) refuses(displaced record.Record) bool {
	return how.since != 0 && displaced.Version >= how.since
}

// commit is the one way records reach storage: base-table writes and
// the index mutations derived from them alike. recs are in version
// order and stay so within each primary's group. All of them usually
// share a primary; that group goes out inline as one multi-record
// apply or swap (one RPC, one WAL write). Records spanning several
// primaries are split per primary and the groups committed
// concurrently, so a failure of one node's group never strands another
// group's records without follow-up. When recs share a primary, a
// swap's answers, the records each of recs displaced, are returned in
// recs' order; a split commit (only a batch's, which consumes none)
// returns none. Each record its primary applied is scheduled for
// replication under bound and, under how.upkeep, the row it displaced
// is queued for index maintenance with bound as the deadline.
func (c *Cluster) commit(ns string, recs []record.Record, bound time.Duration, how delivery) ([]record.Record, error) {
	m, ok := c.router.Map(ns)
	if !ok {
		return nil, fmt.Errorf("scads: no partition map for %s", ns)
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
		var mine, rest []record.Record
		for i, rec := range recs {
			if acked[i].Replicas[0] == acked[0].Replicas[0] {
				mine = append(mine, rec)
			} else {
				rest = append(rest, rec)
			}
		}
		restErr := make(chan error, 1)
		go func() {
			_, err := c.commit(ns, rest, bound, how)
			restErr <- err
		}()
		_, err := c.commit(ns, mine, bound, how)
		if rerr := <-restErr; err == nil {
			err = rerr
		}
		return nil, err
	}

	// When the group's one-shot delivery fails, each record goes through
	// the request-execution core, which re-reads the map and waits out a
	// handoff, failover or overload — or reports why it cannot; a record
	// the group did land is answered from the primary's swap memory.
	// Replicas are re-captured from the ranges that accepted the writes
	// so replication follows them.
	var displaced []record.Record
	var err error
	if how.swap {
		if displaced, _, err = c.router.Swap(ns, acked[0].Replicas[0], recs, how.since); err != nil {
			displaced = make([]record.Record, len(recs))
		}
	} else {
		err = c.router.Apply(ns, acked[0].Replicas[0], recs)
	}
	for i, rec := range recs {
		if err != nil {
			var ferr error
			if how.swap {
				var one []record.Record
				if one, acked[i], ferr = c.router.Swap(ns, "", recs[i:i+1], how.since); ferr == nil {
					displaced[i] = one[0]
				}
			} else {
				acked[i], ferr = c.router.ApplyToPrimary(ns, rec.Key, recs[i:i+1])
			}
			if ferr != nil {
				return nil, ferr
			}
		}
		if how.swap && (how.refuses(displaced[i]) || rec.Tombstone && displaced[i].Tombstone) {
			continue // the primary applied nothing
		}
		c.loads.Record(ns, acked[i].Start, rec.Key)
		c.enqueueReplication(ns, m, rec, acked[i], bound)
		if how.upkeep != "" {
			c.maint.push(maintTask{table: how.upkeep, ns: ns, key: rec.Key, old: displaced[i], deadline: c.clk.Now().Add(bound)})
		}
	}
	return displaced, nil
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
// A task is a key and the row a write displaced there; the rows the
// popped tasks' keys hold now are read from their primaries first, with
// one batched read per base namespace, so upkeep retires every
// displaced row's entries and installs the current row's whatever order
// the tasks were queued in. A task's index mutations go through commit,
// one call per index namespace, so mutations bound for the same primary
// share an apply, and they replicate under the staleness bound of the
// table whose change they derive from. A task that fails — a read or an
// apply outlasting its retry budget during a failover, say — goes back
// on the queue with the tasks after it, deadlines and places kept, and
// the error is returned: the index is late, never silently divergent
// (re-running a half-applied task is harmless, index entries are
// overwritten by version). Rounds run one at a time: two rounds holding
// tasks of one key could otherwise commit a row the other has already
// retired. Simulations call this each tick; FlushAll drains everything.
func (c *Cluster) DrainMaintenance(budget int) (int, error) {
	c.maint.draining.Lock()
	defer c.maint.draining.Unlock()
	tasks := c.maint.popN(budget)
	cur, err := c.currentRows(tasks)
	for i, task := range tasks {
		if err == nil {
			err = c.maintain(task, cur[i])
		}
		if err != nil {
			c.maint.requeue(tasks[i:]...)
			return i, err
		}
	}
	return len(tasks), nil
}

// currentRows reads the row each task's key holds now (nil when none)
// from its primary, with one batched read per base namespace that
// waits out a failover like a write does: a secondary's older row would
// leave upkeep a row behind.
func (c *Cluster) currentRows(tasks []maintTask) ([]row.Row, error) {
	cur := make([]row.Row, len(tasks))
	var read []string // the namespaces read so far
	for _, task := range tasks {
		if slices.Contains(read, task.ns) {
			continue
		}
		read = append(read, task.ns)
		var idx []int
		var keys [][]byte
		for i := range tasks {
			if tasks[i].ns == task.ns {
				idx, keys = append(idx, i), append(keys, tasks[i].key)
			}
		}
		got, err := c.router.GetBatch(task.ns, keys, partition.WritePrimary)
		if err != nil {
			return nil, err
		}
		for j, g := range got {
			if g.Err == nil {
				cur[idx[j]], g.Err = decodeRow(g.Value, g.Found, nil)
			}
			if g.Err != nil {
				return nil, g.Err
			}
		}
	}
	return cur, nil
}

// maintain computes the index mutations of one task, whose key now
// holds cur, and commits them. (A queued task implies a defined schema,
// so c.views is set.)
func (c *Cluster) maintain(task maintTask, cur row.Row) error {
	old, err := decodeRow(task.old.Value, !task.old.Tombstone, nil)
	if err != nil {
		return fmt.Errorf("scads: maintenance for %s: %w", task.table, err)
	}
	if old == nil && cur == nil {
		return nil
	}
	c.mu.RLock()
	views := c.views
	c.mu.RUnlock()
	muts, err := views.Mutations(task.table, old, cur)
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
		if _, err := c.commit(ns, recs, bound, delivery{}); err != nil {
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

// maintTask is one base change awaiting index upkeep: key of table
// (stored in namespace ns) and the row a write displaced there.
type maintTask struct {
	table, ns string
	key       []byte
	old       record.Record // what a write displaced there: a tombstone when no row
	deadline  time.Time
	seq       int64
}

type maintQueue struct {
	draining sync.Mutex // held by a DrainMaintenance round

	mu  sync.Mutex
	h   maintHeap
	seq int64
}

func (q *maintQueue) push(t maintTask) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	t.seq = q.seq
	heap.Push(&q.h, t)
}

// requeue puts back popped tasks that could not be completed, keeping
// their deadlines and seqs so they run next in their original order.
func (q *maintQueue) requeue(ts ...maintTask) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range ts {
		heap.Push(&q.h, t)
	}
}

// popN pops up to n tasks in deadline order.
func (q *maintQueue) popN(n int) []maintTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []maintTask
	for len(q.h) > 0 && len(out) < n {
		out = append(out, heap.Pop(&q.h).(maintTask))
	}
	return out
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
