// Package view implements the index-maintenance engine of paper §3.2:
// when a base-table row changes, the engine consults the compiled
// index set (the Figure 3 table, in executable form) and produces the
// exact set of index-entry mutations required — each computed with a
// bounded number of lookups, honouring the O(K) update-work guarantee
// the analyzer proved, its key and encoded value appended from the
// rows by the planner's entry recipe. The coordinator's upkeep rounds,
// run after the write they follow, stamp each mutation's version and
// commit it, making index maintenance asynchronous as the paper
// prescribes.
package view

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"

	"scads/internal/keycodec"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
)

// Records is the engine's read access to current data as it is
// stored: encoded rows under their keys. The coordinator's upkeep
// round implements it over the router.
type Records interface {
	// GetRecord returns the encoded row stored under key in namespace.
	GetRecord(namespace string, key []byte) ([]byte, bool, error)
	// ScanRecords returns up to limit live records with
	// start <= key < end.
	ScanRecords(namespace string, start, end []byte, limit int) ([]record.Record, error)
}

// Store is read access to current data as row maps. NewEngine adapts
// one to Records once, encoding the rows it returns.
type Store interface {
	// GetRow fetches one row by encoded key from a namespace.
	GetRow(namespace string, key []byte) (row.Row, bool, error)
	// ScanRows returns up to limit live rows with start <= key < end.
	ScanRows(namespace string, start, end []byte, limit int) ([]row.Row, error)
}

// KeyScanner is a Store that also lists the keys of a range. Retiring
// a driving row's join-view entries needs them: an entry's key holds
// the looked row it was built with, which its value may not carry.
// Against a Store without it, the engine derives those keys from the
// looked rows' current images, which misses an entry whose looked row
// has changed since.
type KeyScanner interface {
	// ScanKeys returns the keys of up to limit live rows with
	// start <= key < end.
	ScanKeys(namespace string, start, end []byte, limit int) ([][]byte, error)
}

// Mutation is one index-entry change: Value is the entry's encoded
// row, and a nil Value deletes the entry.
type Mutation struct {
	Namespace string
	Key       []byte
	Value     []byte
}

// ErrCardinalityViolated is returned when a bounded lookup finds more
// rows than the schema's declared CARDINALITY permits — the data has
// broken the contract the analyzer's O(K) proof relied on.
var ErrCardinalityViolated = fmt.Errorf("view: declared cardinality bound exceeded")

// Engine computes index maintenance for one compiled schema. NewEngine
// sorts the index set once into per-table lookup tables; the write path
// then asks it two things: Maintains (does anything derive from this
// table, so is the old row worth reading?) at write time, and a Round's
// Mutations (which index entries does this base change imply?) when the
// queued change is drained.
type Engine struct {
	schema *query.Schema
	store  Records // nil: NewEngine was given no Store

	byDriving map[string][]*planner.IndexDef
	byLooked  map[string][]*planner.IndexDef
	auxFor    map[string]*planner.IndexDef // table+"."+col -> reverse index
	tableNS   map[string]string            // table -> its namespace
}

// NewEngine returns an engine maintaining the given index set. Its
// Mutations read through store, which may be nil when every change
// goes through a Round instead.
func NewEngine(schema *query.Schema, indexes []*planner.IndexDef, store Store) *Engine {
	e := &Engine{
		schema:    schema,
		byDriving: make(map[string][]*planner.IndexDef),
		byLooked:  make(map[string][]*planner.IndexDef),
		auxFor:    make(map[string]*planner.IndexDef),
		tableNS:   make(map[string]string),
	}
	if store != nil {
		ks, _ := store.(KeyScanner)
		e.store = rowStore{store, ks}
	}
	for _, def := range indexes {
		e.byDriving[def.Driving] = append(e.byDriving[def.Driving], def)
		if def.Looked != "" {
			e.byLooked[def.Looked] = append(e.byLooked[def.Looked], def)
			e.tableNS[def.Looked] = planner.TableNamespace(def.Looked)
		}
		e.tableNS[def.Driving] = planner.TableNamespace(def.Driving)
		if def.Aux {
			e.auxFor[def.Driving+"."+def.KeyCols[0].Column] = def
		}
	}
	return e
}

// Maintains reports whether any index or view is derived from table —
// as the driving table or the joined one. When it is false, Mutations
// for that table is always empty, so a write to it needs neither the
// row's old image nor a maintenance task.
func (e *Engine) Maintains(table string) bool {
	return len(e.byDriving[table]) > 0 || len(e.byLooked[table]) > 0
}

// Mutations computes every index-entry change implied by a base-table
// change, reading through the engine's Store. oldRow is nil for
// inserts, newRow nil for deletes; for updates the primary key of both
// rows must match. It encodes both rows and runs a Round of one change.
func (e *Engine) Mutations(table string, oldRow, newRow row.Row) ([]Mutation, error) {
	var old, cur []byte
	var err error
	if oldRow != nil {
		if old, err = row.Encode(oldRow); err != nil {
			return nil, err
		}
	}
	if newRow != nil {
		if cur, err = row.Encode(newRow); err != nil {
			return nil, err
		}
	}
	return e.Round(e.store).Mutations(table, old, cur)
}

// Round computes the index mutations of a series of base changes
// against one store, reusing its buffers from one change to the next.
// It is used by one goroutine at a time.
type Round struct {
	e     *Engine
	store Records
	set   mutationSet

	old, cur, found row.Columns // the change's rows, and one row it looked up
	one             [1]record.Record
	key             []byte   // the last lookup's key, or prefix and end (see keys)
	want            [][]byte // retireDriving's key columns
}

// Round returns a Round reading through store.
func (e *Engine) Round(store Records) *Round {
	return &Round{e: e, store: store}
}

// Mutations computes every index-entry change implied by a change of
// one row of table from old to cur, both encoded: old is nil for an
// insert, cur nil for a delete; for an update the primary key of both
// must match. A row that does not decode is row.ErrCorrupt. The slice
// returned is valid until the next call; the keys and values it holds
// stay valid.
func (r *Round) Mutations(table string, old, cur []byte) ([]Mutation, error) {
	r.set.reset()
	var o, c *row.Columns
	if old != nil {
		if err := r.old.Reset(old); err != nil {
			return nil, err
		}
		o = &r.old
	}
	if cur != nil {
		if err := r.cur.Reset(cur); err != nil {
			return nil, err
		}
		c = &r.cur
	}
	if o == nil && c == nil {
		return nil, nil
	}
	for _, def := range r.e.byDriving[table] {
		var err error
		if def.Looked == "" {
			err = r.singleTable(def, o, c)
		} else {
			err = r.drivingSide(def, o, c)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, def := range r.e.byLooked[table] {
		if err := r.lookedSide(def, o, c); err != nil {
			return nil, err
		}
	}
	return r.set.muts, nil
}

// singleTable maintains a plain secondary (or aux reverse) index.
func (r *Round) singleTable(def *planner.IndexDef, old, cur *row.Columns) error {
	if old != nil {
		if err := r.set.delete(def, old, nil); err != nil {
			return err
		}
	}
	if cur != nil {
		return r.set.put(def, cur, nil)
	}
	return nil
}

// drivingSide maintains a join view when the driving (FROM) table
// changes: look up the joined row(s) for the old and new join values
// and rewrite the affected entries.
func (r *Round) drivingSide(def *planner.IndexDef, old, cur *row.Columns) error {
	if old != nil {
		if err := r.retireDriving(def, old); err != nil {
			return err
		}
	}
	if cur != nil {
		joined, err := r.lookupJoined(def, cur)
		if err != nil {
			return err
		}
		for _, rec := range joined {
			if err := r.found.Reset(rec.Value); err != nil {
				return err
			}
			if err := r.set.put(def, cur, &r.found); err != nil {
				return err
			}
		}
	}
	return nil
}

// retireDriving deletes the entries of join view def that the driving
// row old built. Their keys hold the looked rows they were built with,
// and a looked row may have changed since: its own upkeep finds no
// driving row to rewrite once old's reverse-index entry is gone. So
// they are found by a bounded scan of the view under the leading key
// columns old fixes, and deleted when their driving primary-key
// columns are old's.
func (r *Round) retireDriving(def *planner.IndexDef, old *row.Columns) error {
	if s, ok := r.store.(rowStore); ok && s.keys == nil {
		joined, err := r.lookupJoined(def, old)
		if err != nil {
			return err
		}
		for _, rec := range joined {
			if err := r.found.Reset(rec.Value); err != nil {
				return err
			}
			if err := r.set.delete(def, old, &r.found); err != nil {
				return err
			}
		}
		return nil
	}
	driving := r.e.schema.Tables[def.Driving]
	// One buffer holds old's encoding of each driving key column, the
	// leading ones first, which form the scan's prefix, then its end.
	// want[i] is key column i's encoding under old when it is one of the
	// driving table's primary-key columns.
	buf := r.keys()
	r.want = append(r.want[:0], make([][]byte, len(def.KeyCols))...)
	var prefix []byte
	lead := 0
	for i, kc := range def.KeyCols {
		if kc.Source != def.DrivingEff {
			continue
		}
		v, ok := old.Value(kc.Column)
		if !ok {
			return nil // no entry was built without its key column
		}
		at := len(buf)
		buf = row.AppendKeyElem(buf, v, kc.Desc)
		if lead == i {
			prefix, lead = buf[:len(buf):len(buf)], i+1
		}
		if slices.Contains(driving.PrimaryKey, kc.Column) {
			r.want[i] = buf[at:len(buf):len(buf)]
		}
	}
	bound := drivingRowsBound(driving, def.KeyCols[:lead]) * max(def.LookedFanout, 1)
	if bound <= 0 {
		return fmt.Errorf("view: %s: no cardinality bound for the entries under %s's key prefix", def.Name, def.Driving)
	}
	buf, end := keycodec.AppendPrefixEnd(buf, prefix)
	r.key = buf
	entries, err := r.store.ScanRecords(def.Namespace, prefix, end, bound+1)
	if err != nil {
		return err
	}
	if len(entries) > bound {
		return fmt.Errorf("%w: %s: more than %d entries match prefix in %s",
			ErrCardinalityViolated, def.Name, bound, def.Namespace)
	}
	for _, entry := range entries {
		rest, match := entry.Key, true
		for i, kc := range def.KeyCols {
			n, err := keycodec.ElemLen(rest, kc.Desc)
			if err != nil {
				return fmt.Errorf("view: %s: entry key: %w", def.Name, err)
			}
			match = match && (r.want[i] == nil || bytes.Equal(rest[:n], r.want[i]))
			rest = rest[n:]
		}
		if match {
			r.set.add(Mutation{Namespace: def.Namespace, Key: entry.Key})
		}
	}
	return nil
}

// drivingRowsBound is the most rows of t that agree on the columns of
// cols: one when they hold t's primary key, else the least cardinality
// declared on one of them (0: none declared).
func drivingRowsBound(t *query.TableDef, cols []planner.KeyCol) int {
	has := func(c string) bool {
		return slices.ContainsFunc(cols, func(kc planner.KeyCol) bool { return kc.Column == c })
	}
	if len(t.PrimaryKey) > 0 && !slices.ContainsFunc(t.PrimaryKey, func(pk string) bool { return !has(pk) }) {
		return 1
	}
	best := 0
	for _, kc := range cols {
		if card, ok := t.Cardinality[kc.Column]; ok && (best == 0 || card < best) {
			best = card
		}
	}
	return best
}

// lookedSide maintains a join view when the looked-up (joined) table
// changes: find every driving row pointing at it (through the reverse
// index or a PK-prefix scan — both bounded) and rewrite those entries.
func (r *Round) lookedSide(def *planner.IndexDef, old, cur *row.Columns) error {
	pk := cur
	if pk == nil {
		pk = old
	}
	joinVal, ok := pk.Value(def.JoinRightCol)
	if !ok {
		return fmt.Errorf("view: %s: looked row lacks join column %q", def.Name, def.JoinRightCol)
	}
	drivers, err := r.lookupDrivers(def, joinVal)
	if err != nil {
		return err
	}
	for _, rec := range drivers {
		if err := r.found.Reset(rec.Value); err != nil {
			return err
		}
		if old != nil {
			if err := r.set.delete(def, &r.found, old); err != nil {
				return err
			}
		}
		if cur != nil {
			if err := r.set.put(def, &r.found, cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// lookupJoined fetches the looked-table records joining with the
// driving row: one for a full-PK join, up to LookedFanout for a prefix
// join.
func (r *Round) lookupJoined(def *planner.IndexDef, driving *row.Columns) ([]record.Record, error) {
	joinVal, ok := driving.Value(def.JoinLeftCol)
	if !ok {
		return nil, fmt.Errorf("view: %s: driving row lacks join column %q", def.Name, def.JoinLeftCol)
	}
	ns := r.e.tableNS[def.Looked]
	if def.LookedFanout > 1 {
		// Prefix join: bounded scan of the looked table.
		return r.boundedPrefixScan(ns, joinVal, def.LookedFanout, def.Name)
	}
	// A full-PK join: the join column is the looked table's key.
	for _, pk := range r.e.schema.Tables[def.Looked].PrimaryKey {
		if pk != def.JoinRightCol {
			return nil, fmt.Errorf("row: key column %q missing from row", pk)
		}
	}
	key := row.AppendKeyElem(r.keys(), joinVal, false)
	r.key = key
	val, found, err := r.store.GetRecord(ns, key)
	if err != nil || !found {
		return nil, err
	}
	r.one[0] = record.Record{Value: val}
	return r.one[:], nil
}

// lookupDrivers finds the driving records whose join column holds the
// encoded value joinVal.
func (r *Round) lookupDrivers(def *planner.IndexDef, joinVal []byte) ([]record.Record, error) {
	driving := r.e.schema.Tables[def.Driving]
	bound := driving.Cardinality[def.JoinLeftCol]
	if bound == 0 {
		if driving.IsPrimaryKey([]string{def.JoinLeftCol}) {
			bound = 1
		} else {
			return nil, fmt.Errorf("view: %s: no cardinality bound for reverse lookup on %s.%s",
				def.Name, def.Driving, def.JoinLeftCol)
		}
	}
	if len(driving.PrimaryKey) > 0 && driving.PrimaryKey[0] == def.JoinLeftCol {
		return r.boundedPrefixScan(r.e.tableNS[def.Driving], joinVal, bound, def.Name)
	}
	aux, ok := r.e.auxFor[def.Driving+"."+def.JoinLeftCol]
	if !ok {
		return nil, fmt.Errorf("view: %s: reverse index %s missing", def.Name,
			planner.ReverseIndexName(def.Driving, def.JoinLeftCol))
	}
	return r.boundedPrefixScan(aux.Namespace, joinVal, bound, def.Name)
}

// boundedPrefixScan reads the records of namespace whose keys start
// with the element of the encoded value prefixVal, failing when there
// are more than bound.
func (r *Round) boundedPrefixScan(namespace string, prefixVal []byte, bound int, indexName string) ([]record.Record, error) {
	// One buffer holds the prefix, then its end.
	buf := row.AppendKeyElem(r.keys(), prefixVal, false)
	prefix := buf[:len(buf):len(buf)]
	buf, end := keycodec.AppendPrefixEnd(buf, prefix)
	r.key = buf
	recs, err := r.store.ScanRecords(namespace, prefix, end, bound+1)
	if err != nil {
		return nil, err
	}
	if len(recs) > bound {
		return nil, fmt.Errorf("%w: %s: more than %d rows match prefix in %s",
			ErrCardinalityViolated, indexName, bound, namespace)
	}
	return recs, nil
}

// keys returns an empty buffer for a lookup's key, placed past every
// key handed to the store before: those bytes are never written again,
// because a scan's workers may still read its bounds after it returns.
func (r *Round) keys() []byte {
	if cap(r.key)-len(r.key) < 256 {
		r.key = make([]byte, 0, 1024)
	}
	return r.key[len(r.key):]
}

// rowStore adapts a Store of row maps to Records, encoding each row it
// returns; keys is the Store as a KeyScanner, nil when it lists no
// keys, and then a scan's records carry none.
type rowStore struct {
	Store
	keys KeyScanner
}

func (s rowStore) GetRecord(namespace string, key []byte) ([]byte, bool, error) {
	r, found, err := s.GetRow(namespace, key)
	if err != nil || !found {
		return nil, false, err
	}
	enc, err := row.Encode(r)
	return enc, err == nil, err
}

func (s rowStore) ScanRecords(namespace string, start, end []byte, limit int) ([]record.Record, error) {
	rows, err := s.ScanRows(namespace, start, end, limit)
	if err != nil {
		return nil, err
	}
	recs := make([]record.Record, len(rows))
	if s.keys != nil {
		keys, err := s.keys.ScanKeys(namespace, start, end, limit)
		if err != nil {
			return nil, err
		}
		if len(keys) != len(rows) {
			return nil, fmt.Errorf("view: %s: %d keys listed for %d rows", namespace, len(keys), len(rows))
		}
		for i := range recs {
			recs[i].Key = keys[i]
		}
	}
	for i, r := range rows {
		if recs[i].Value, err = row.Encode(r); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// mutationSet is one change's output: its mutations, one per
// (namespace, key) in the order each key first came, and the buffer
// their keys and values are appended to. A put wins over a delete, and
// a later put over an earlier one, so an update whose old and new rows
// share a key becomes a single overwrite.
type mutationSet struct {
	buf  []byte
	muts []Mutation
	// at indexes muts once there are too many to search one by one: a
	// hash of namespace and key -> the first mutation with that hash.
	// It is kept, emptied, from one change to the next.
	at      map[uint64]int
	indexed bool
}

// seed hashes a mutationSet's namespaces and keys.
var seed = maphash.MakeSeed()

// reset empties ms for the next change. The bytes of the mutations it
// handed out stay as they are: the buffer only grows past them, into a
// fresh array once the current one is nearly full.
func (ms *mutationSet) reset() {
	if cap(ms.buf)-len(ms.buf) < 1024 {
		ms.buf = make([]byte, 0, 4096)
	}
	ms.buf = ms.buf[len(ms.buf):]
	ms.muts = ms.muts[:0]
	clear(ms.at)
	ms.indexed = false
}

// delete adds the deletion of def's entry for the driving row d and the
// looked row l.
func (ms *mutationSet) delete(def *planner.IndexDef, d, l *row.Columns) error {
	start := len(ms.buf)
	buf, err := def.AppendKey(ms.buf, d, l)
	if err != nil {
		return err
	}
	ms.buf = buf
	ms.add(Mutation{Namespace: def.Namespace, Key: buf[start:len(buf):len(buf)]})
	return nil
}

// put adds def's entry for d and l.
func (ms *mutationSet) put(def *planner.IndexDef, d, l *row.Columns) error {
	start := len(ms.buf)
	buf, err := def.AppendKey(ms.buf, d, l)
	if err != nil {
		return err
	}
	mid := len(buf)
	if buf, err = def.AppendValue(buf, d, l); err != nil {
		return err
	}
	ms.buf = buf
	ms.add(Mutation{Namespace: def.Namespace, Key: buf[start:mid:mid], Value: buf[mid:len(buf):len(buf)]})
	return nil
}

func (ms *mutationSet) add(m Mutation) {
	if i, ok := ms.find(m); ok {
		if m.Value != nil {
			ms.muts[i] = m
		}
		return
	}
	ms.muts = append(ms.muts, m)
	if ms.indexed {
		ms.index(len(ms.muts) - 1)
	}
}

// find is the index of m's namespace and key in ms.muts.
func (ms *mutationSet) find(m Mutation) (int, bool) {
	same := func(o Mutation) bool { return o.Namespace == m.Namespace && bytes.Equal(o.Key, m.Key) }
	if !ms.indexed && len(ms.muts) < 16 {
		i := slices.IndexFunc(ms.muts, same)
		return i, i >= 0
	}
	if !ms.indexed {
		if ms.at == nil {
			ms.at = make(map[uint64]int, 2*len(ms.muts))
		}
		for i := range ms.muts {
			ms.index(i)
		}
		ms.indexed = true
	}
	i, ok := ms.at[hash(m)]
	if ok && !same(ms.muts[i]) {
		// Another key has the same hash: search one by one.
		i = slices.IndexFunc(ms.muts, same)
		ok = i >= 0
	}
	return i, ok
}

// index adds muts[i] to the index unless an earlier mutation has its
// hash.
func (ms *mutationSet) index(i int) {
	h := hash(ms.muts[i])
	if _, taken := ms.at[h]; !taken {
		ms.at[h] = i
	}
}

func hash(m Mutation) uint64 {
	return maphash.String(seed, m.Namespace) ^ maphash.Bytes(seed, m.Key)
}
