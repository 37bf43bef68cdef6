package scads

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"scads/internal/admission"
	"scads/internal/consistency"
	"scads/internal/deadline"
	"scads/internal/partition"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/view"
)

// Every write runs one pipeline. Stage: resolve the table, validate
// the row and encode its key; a last-write-wins write of a whole row is
// staged straight into its record, key and value in one buffer. Old
// row: read from the primary only when the new row is computed from it
// (UpdateFunc, serializable and merge writes). Commit: deliver the
// versioned records to their primaries as a swap, which answers the
// record each displaced, whenever something consumes that answer (a
// bound on the version read, index upkeep, Delete's "was there a
// row?"), else as an apply; then schedule replication and, for a table
// with dependents, queue each displaced row for asynchronous index
// upkeep (§3.2), which reads the key's current row when it runs and
// goes back through commit. The primary's swap is the only place
// writers of one key meet: nothing here locks a key.

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
		release()
	} else if m, ok := c.router.Map(ns); ok && terr == nil {
		for _, r := range rows {
			if key, kerr := pkKey(t, r); kerr == nil {
				c.loads.Record(ns, m.Lookup(key).Start, key)
			}
		}
	}
	c.record(start, err)
	return ver, err
}

// Update applies a full-row write with the same semantics as Insert
// (SCADS rows are documents; partial updates go through UpdateFunc).
func (c *Cluster) Update(table string, r row.Row) error {
	return c.Insert(table, r)
}

// upsert stages one full-row write and sends it down the pipeline under
// the table's write mode: a last-write-wins write is staged into its
// record and committed as is; serializable and merge writes read the
// old row (merge folds it into the new row).
func (c *Cluster) upsert(t *query.TableDef, ns string, r row.Row) (uint64, error) {
	spec := c.specFor(t.Name)
	if spec.Write == consistency.LastWriteWins {
		rec, err := c.stage(t, r)
		if err != nil {
			return 0, err
		}
		_, err = c.commitOne(ns, rec, c.stalenessBound(t.Name), c.deliveryFor(t.Name))
		return rec.Version, err
	}
	nr, err := c.normalizeRow(t, r)
	if err != nil {
		return 0, err
	}
	key, err := pkKey(t, nr)
	if err != nil {
		return 0, err
	}
	return c.writeKey(t, ns, key, true, func(old row.Row) (row.Row, error) {
		if spec.Write == consistency.MergeFunction && old != nil {
			return c.mergeRows(spec.MergeName, old, nr)
		}
		return nr, nil
	})
}

// InsertBatch stores many rows in one coordinator pass: rows are
// staged and versioned together and delivered as one multi-record
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
		var err error
		if recs[i], err = c.stage(t, r); err != nil {
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
// the write fails with ErrWriteConflict. A delete, which does not read
// its row, is one swap.
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
		rec := record.Record{Key: key, Tombstone: nr == nil}
		if nr != nil {
			if rec.Value, err = row.Encode(nr); err != nil {
				return 0, err
			}
		}
		rec.Version = c.versions.Next()
		how.swap = true
		d, err := c.commitOne(ns, rec, c.stalenessBound(t.Name), how)
		if err != nil {
			return 0, err
		}
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

// stage versions one last-write-wins write of the whole row r: r is
// checked in place (see checkRow) and its key and value are encoded into
// one buffer, which the record's Key and Value share.
func (c *Cluster) stage(t *query.TableDef, r row.Row) (record.Record, error) {
	if err := checkRow(t, r); err != nil {
		return record.Record{}, err
	}
	sp := keyPool.Get().(*[]byte)
	defer keyPool.Put(sp)
	b, err := row.AppendKey((*sp)[:0], r, t.PrimaryKey)
	if err != nil {
		return record.Record{}, err
	}
	n := len(b)
	if b, err = row.AppendEncode(b, r); err != nil {
		return record.Record{}, err
	}
	if cap(b) <= maxPooledStage {
		*sp = b
	}
	buf := bytes.Clone(b)
	return record.Record{Key: buf[:n:n], Value: buf[n:], Version: c.versions.Next()}, nil
}

// maxPooledStage bounds the staging buffers kept in keyPool, so one huge
// row does not pin its size there.
const maxPooledStage = 1 << 20

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

// solos holds the one-record slices commitOne hands commit, which keeps
// nothing of recs once it returns.
var solos = sync.Pool{New: func() any { return new([1]record.Record) }}

// commitOne commits rec alone, answering, for a swap, the record it
// displaced.
func (c *Cluster) commitOne(ns string, rec record.Record, bound time.Duration, how delivery) (record.Record, error) {
	one := solos.Get().(*[1]record.Record)
	defer solos.Put(one)
	one[0] = rec
	displaced, err := c.commit(ns, one[:], bound, how)
	one[0] = record.Record{}
	if err != nil || !how.swap {
		return record.Record{}, err
	}
	return displaced[0], nil
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
		c.pump.Enqueue(ns, rec, acked[i].Replicas, bound)
		if how.upkeep != "" {
			c.maint.push(maintTask{table: how.upkeep, ns: ns, key: rec.Key, old: displaced[i]}, c.clk.Now().Add(bound))
		}
	}
	return displaced, nil
}

// DrainMaintenance synchronously runs up to budget pending index
// maintenance tasks in deadline order, returning how many completed.
// A task is a key and the row a write displaced there; the rows the
// popped tasks' keys hold now are read from their primaries first, with
// one batched read per base namespace, so upkeep retires every
// displaced row's entries and installs the current row's whatever order
// the tasks were queued in. The round holds its tasks' index mutations,
// versioned in task order, in groups by index namespace and by the
// staleness bound of the table each derives from, and goes through
// commit once per group: one apply per index namespace and primary.
// Before upkeep reads an index namespace the round commits what it
// holds for it, so every task reads what the tasks before it wrote. A
// failed commit, or a task that fails — a read or an apply outlasting
// its retry budget during a failover, say — puts back on the queue
// every task from the earliest one with a mutation not yet committed,
// deadlines and places kept; that index is returned with the error.
// The index is late, never silently divergent (re-running a
// half-applied task is harmless, index entries are overwritten by
// version). A task that fails the same way however often it runs — a
// declared cardinality exceeded, a row that does not decode — is
// parked instead: it holds back no other task, fails no round, and is
// queued again when its key is next written (Stats counts the parked
// tasks and keeps the last such error). Rounds run one at a time: two
// rounds holding tasks of one key could otherwise commit a row the
// other has already retired. Simulations call this each tick; FlushAll
// drains everything.
func (c *Cluster) DrainMaintenance(budget int) (int, error) {
	c.maint.draining.Lock()
	defer c.maint.draining.Unlock()
	tasks := c.maint.popN(budget)
	if len(tasks) == 0 {
		return 0, nil
	}
	r := &c.maint.upkeep
	r.c = c
	done, err := r.run(tasks)
	done -= c.maint.settle(done, r.parked)
	r.reset()
	return done, err
}

// deterministic reports whether an upkeep failure recurs however often
// the task runs.
func deterministic(err error) bool {
	return errors.Is(err, view.ErrCardinalityViolated) || errors.Is(err, row.ErrCorrupt)
}

// currentRows reads what each task's key holds now from its primary,
// with one batched read per base namespace that waits out a failover
// like a write does: a secondary's older row would leave upkeep a row
// behind.
func (r *upkeepRound) currentRows(tasks []maintTask) ([]partition.GetResult, error) {
	r.cur = append(r.cur[:0], make([]partition.GetResult, len(tasks))...)
	for i, task := range tasks {
		if slices.ContainsFunc(tasks[:i], func(t maintTask) bool { return t.ns == task.ns }) {
			continue // read with an earlier task's
		}
		// One namespace's task indices and keys at a time.
		r.idx, r.keys = r.idx[:0], r.keys[:0]
		for j := i; j < len(tasks); j++ {
			if tasks[j].ns == task.ns {
				r.idx, r.keys = append(r.idx, j), append(r.keys, tasks[j].key)
			}
		}
		got, err := r.c.router.GetBatch(task.ns, r.keys, partition.WritePrimary)
		if err != nil {
			return nil, err
		}
		for j, g := range got {
			if g.Err != nil {
				return nil, g.Err
			}
			r.cur[r.idx[j]] = g
		}
	}
	return r.cur, nil
}

// upkeepRound is one DrainMaintenance round: the index mutations its
// tasks derived and has not committed yet. It is the view engine's
// Records for the round, reading primaries so that upkeep sees the
// freshest base data, and a read of an index namespace first commits
// what the round holds for it. Rounds run one at a time, so one
// upkeepRound serves them all, its buffers kept from one to the next.
type upkeepRound struct {
	c      *Cluster
	groups []upkeepGroup
	parked []parkedTask

	engine *view.Engine          // the schema's engine when views was made
	views  *view.Round           // its round, reused while the schema stays
	cur    []partition.GetResult // currentRows' answer
	idx    []int                 // currentRows' tasks of one namespace
	keys   [][]byte              // and their keys
}

// reset readies r for the next round, holding nothing of the last.
func (r *upkeepRound) reset() {
	clear(r.groups)
	clear(r.parked)
	clear(r.cur)
	clear(r.keys)
	r.groups, r.parked, r.cur, r.keys = r.groups[:0], r.parked[:0], r.cur[:0], r.keys[:0]
}

// parkedTask is a task of the round that failed deterministically.
type parkedTask struct {
	i   int
	err error
}

// upkeepGroup is the records a round holds for one index namespace
// under one staleness bound, in version order.
type upkeepGroup struct {
	ns    string
	bound time.Duration
	first int // the earliest task with a record here
	recs  []record.Record
}

// run maintains tasks, whose keys are read first, and reports how many
// from the first completed. (A queued task implies a defined schema, so
// c.views is set.)
func (r *upkeepRound) run(tasks []maintTask) (int, error) {
	cur, err := r.currentRows(tasks)
	if err != nil {
		return 0, err
	}
	r.c.mu.RLock()
	if r.engine != r.c.views {
		r.engine, r.views = r.c.views, r.c.views.Round(r)
	}
	r.c.mu.RUnlock()
	for i, task := range tasks {
		if err := r.maintain(r.views, i, task, cur[i]); err != nil {
			if !deterministic(err) {
				return r.earliest(i), err
			}
			r.parked = append(r.parked, parkedTask{i, err})
		}
	}
	if err := r.flush(""); err != nil {
		return r.earliest(len(tasks)), err
	}
	return len(tasks), nil
}

// maintain computes the index mutations of task i, whose key now holds
// now, and adds them to the round's groups.
func (r *upkeepRound) maintain(views *view.Round, i int, task maintTask, now partition.GetResult) error {
	muts, err := views.Mutations(task.table, stored(task.old.Value, !task.old.Tombstone), stored(now.Value, now.Found))
	if err != nil {
		return fmt.Errorf("scads: maintenance for %s: %w", task.table, err)
	}
	bound := r.c.stalenessBound(task.table)
	for _, mut := range muts {
		rec := record.Record{Key: mut.Key, Value: mut.Value, Tombstone: mut.Value == nil, Version: r.c.versions.Next()}
		g := slices.IndexFunc(r.groups, func(g upkeepGroup) bool { return g.ns == mut.Namespace && g.bound == bound })
		if g < 0 {
			g = len(r.groups)
			r.groups = append(r.groups, upkeepGroup{ns: mut.Namespace, bound: bound, first: i, recs: make([]record.Record, 0, len(muts))})
		}
		r.groups[g].recs = append(r.groups[g].recs, rec)
	}
	return nil
}

// flush commits the groups held for ns (every group when ns is ""),
// each in one commit. A group that fails stays held, with the groups
// not reached yet.
func (r *upkeepRound) flush(ns string) error {
	kept := r.groups[:0]
	var err error
	for _, g := range r.groups {
		if err == nil && (ns == "" || g.ns == ns) {
			if _, err = r.c.commit(g.ns, g.recs, g.bound, delivery{}); err == nil {
				continue
			}
		}
		kept = append(kept, g)
	}
	r.groups = kept
	return err
}

// earliest is the least of i and the first task of each group the
// round still holds.
func (r *upkeepRound) earliest(i int) int {
	for _, g := range r.groups {
		i = min(i, g.first)
	}
	return i
}

func (r *upkeepRound) GetRecord(namespace string, key []byte) ([]byte, bool, error) {
	if err := r.flush(namespace); err != nil {
		return nil, false, err
	}
	val, _, found, err := r.c.router.Get(namespace, key, partition.ReadPrimary)
	return val, found, err
}

func (r *upkeepRound) ScanRecords(namespace string, start, end []byte, limit int) ([]record.Record, error) {
	if err := r.flush(namespace); err != nil {
		return nil, err
	}
	return r.c.router.Scan(namespace, start, end, limit, partition.ReadPrimary)
}

// stored is the encoded row a read found, nil when there is none; a
// found empty value is no row encoding, so it stays non-nil and fails
// to decode.
func stored(val []byte, found bool) []byte {
	switch {
	case !found:
		return nil
	case val == nil:
		return []byte{}
	}
	return val
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

// MaintenanceBacklog reports pending maintenance tasks, those of a
// round in flight included, and how many queued ones are at risk of
// missing their deadline within margin.
func (c *Cluster) MaintenanceBacklog(margin time.Duration) (pending, atRisk int) {
	pending, atRisk, _, _ = c.maint.backlog(c.clk.Now(), margin)
	return pending, atRisk
}

// --- deadline-ordered maintenance queue ---

// maintTask is one base change awaiting index upkeep: key of table
// (stored in namespace ns) and the row a write displaced there.
type maintTask struct {
	table, ns string
	key       []byte
	old       record.Record // what a write displaced there: a tombstone when no row
}

func (t maintTask) sameKey(o maintTask) bool { return t.ns == o.ns && bytes.Equal(t.key, o.key) }

// maintQueue is the deadline heap of upkeep tasks (see package
// deadline), the round in flight and the parked tasks.
type maintQueue struct {
	draining sync.Mutex  // held by a DrainMaintenance round
	upkeep   upkeepRound // the round's, under draining

	mu        sync.Mutex
	h         deadline.Heap[maintTask]
	round     []deadline.Item[maintTask] // popped by the round in flight, in order
	parked    []deadline.Item[maintTask] // failed deterministically; queued again by a write to their key
	parkedErr error                      // the last such failure
}

// push queues t with deadline due and queues again the parked tasks of
// its key.
func (q *maintQueue) push(t maintTask, due time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.h.Push(due, t)
	kept := q.parked[:0]
	for _, p := range q.parked {
		if t.sameKey(p.Value) {
			q.h.Requeue(p)
		} else {
			kept = append(kept, p)
		}
	}
	clear(q.parked[len(kept):])
	q.parked = kept
}

// popN pops up to n tasks in deadline order as the round in flight,
// whose tasks stay pending until settle.
func (q *maintQueue) popN(n int) []maintTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]maintTask, min(n, q.h.Len()))
	for i := range out {
		it, _ := q.h.Pop()
		q.round = append(q.round, it)
		out[i] = it.Value
	}
	return out
}

// settle ends the round in flight, of which the first done tasks
// completed: the others go back to their places, and the completed
// ones in parked are parked. It returns how many it parked.
func (q *maintQueue) settle(done int, parked []parkedTask) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.round[done:] {
		q.h.Requeue(it)
	}
	n := 0
	for _, p := range parked {
		if p.i < done {
			q.park(q.round[p.i], p.err)
			n++
		}
	}
	clear(q.round)
	q.round = q.round[:0]
	return n
}

// park holds a task that failed with err, which would fail it again,
// until a write to its key; one already written while it ran is queued
// again at once. Caller holds q.mu.
func (q *maintQueue) park(it deadline.Item[maintTask], err error) {
	q.parkedErr = err
	for o := range q.h.Visit {
		if it.Value.sameKey(o) {
			q.h.Requeue(it)
			return
		}
	}
	q.parked = append(q.parked, it)
}

// backlog counts the tasks queued or in the round in flight, the
// queued ones due within margin of now (the round's are being served,
// as the pump's in flight are) and the parked ones, with the last
// failure that parked one.
func (q *maintQueue) backlog(now time.Time, margin time.Duration) (pending, atRisk, parked int, parkedErr error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Len() + len(q.round), q.h.Due(now, margin), len(q.parked), q.parkedErr
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

// checkRow validates r against the table's columns, widening literal
// types as row.Normalize does: unknown columns and values of the wrong
// type are rejected, and so is a row missing a primary key column;
// missing non-key columns are allowed (sparse rows).
func checkRow(t *query.TableDef, r row.Row) error {
	for col, v := range r {
		def, ok := t.Column(col)
		if !ok {
			return fmt.Errorf("scads: table %s has no column %q", t.Name, col)
		}
		if err := row.CheckType(def.Type, row.Normalize(v)); err != nil {
			return fmt.Errorf("scads: table %s: %w", t.Name, err)
		}
	}
	for _, pk := range t.PrimaryKey {
		if _, ok := r[pk]; !ok {
			return fmt.Errorf("scads: table %s: primary key column %q missing", t.Name, pk)
		}
	}
	return nil
}

// normalizeRow is checkRow and a copy of r with literal types widened,
// for the writes that keep the row as a map: serializable and merge
// upserts, and UpdateFunc.
func (c *Cluster) normalizeRow(t *query.TableDef, r row.Row) (row.Row, error) {
	if err := checkRow(t, r); err != nil {
		return nil, err
	}
	out := make(row.Row, len(r))
	for col, v := range r {
		out[col] = row.Normalize(v)
	}
	return out, nil
}

// pkKey builds the storage key from a row containing the primary key
// columns.
func pkKey(t *query.TableDef, r row.Row) ([]byte, error) {
	return row.EncodeKey(r, t.PrimaryKey)
}
