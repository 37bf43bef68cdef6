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
	"slices"

	"scads/internal/keycodec"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/row"
)

// Store is the engine's read access to current data. The coordinator
// implements it over the router; tests implement it over maps.
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
// table, so is the old row worth reading?) at write time, and Mutations
// (which index entries does this base change imply?) when the queued
// change is drained.
type Engine struct {
	schema *query.Schema
	store  Store

	byDriving map[string][]*planner.IndexDef
	byLooked  map[string][]*planner.IndexDef
	auxFor    map[string]*planner.IndexDef // table+"."+col -> reverse index
}

// NewEngine returns an engine maintaining the given index set.
func NewEngine(schema *query.Schema, indexes []*planner.IndexDef, store Store) *Engine {
	e := &Engine{
		schema:    schema,
		store:     store,
		byDriving: make(map[string][]*planner.IndexDef),
		byLooked:  make(map[string][]*planner.IndexDef),
		auxFor:    make(map[string]*planner.IndexDef),
	}
	for _, def := range indexes {
		e.byDriving[def.Driving] = append(e.byDriving[def.Driving], def)
		if def.Looked != "" {
			e.byLooked[def.Looked] = append(e.byLooked[def.Looked], def)
		}
		if def.Aux {
			e.auxFor[def.Driving+"."+def.KeyCols[0].Column] = def
		}
	}
	return e
}

// With returns a copy of e that reads through store.
func (e *Engine) With(store Store) *Engine {
	cp := *e
	cp.store = store
	return &cp
}

// Maintains reports whether any index or view is derived from table —
// as the driving table or the joined one. When it is false, Mutations
// for that table is always empty, so a write to it needs neither the
// row's old image nor a maintenance task.
func (e *Engine) Maintains(table string) bool {
	return len(e.byDriving[table]) > 0 || len(e.byLooked[table]) > 0
}

// Mutations computes every index-entry change implied by a base-table
// change. oldRow is nil for inserts, newRow nil for deletes; for
// updates the primary key of both rows must match. The keys and values
// of one call's mutations share one buffer.
func (e *Engine) Mutations(table string, oldRow, newRow row.Row) ([]Mutation, error) {
	// Sized for a few entries of a few columns each.
	acc := &mutationSet{buf: make([]byte, 0, 256), muts: make([]Mutation, 0, 4)}
	for _, def := range e.byDriving[table] {
		if def.Looked == "" {
			if err := e.singleTable(def, oldRow, newRow, acc); err != nil {
				return nil, err
			}
		} else {
			if err := e.drivingSide(def, oldRow, newRow, acc); err != nil {
				return nil, err
			}
		}
	}
	for _, def := range e.byLooked[table] {
		if err := e.lookedSide(def, oldRow, newRow, acc); err != nil {
			return nil, err
		}
	}
	return acc.muts, nil
}

// singleTable maintains a plain secondary (or aux reverse) index.
func (e *Engine) singleTable(def *planner.IndexDef, oldRow, newRow row.Row, acc *mutationSet) error {
	if oldRow != nil {
		if err := acc.delete(def, oldRow, nil); err != nil {
			return err
		}
	}
	if newRow != nil {
		return acc.put(def, newRow, nil)
	}
	return nil
}

// drivingSide maintains a join view when the driving (FROM) table
// changes: look up the joined row(s) for the old and new join values
// and rewrite the affected entries.
func (e *Engine) drivingSide(def *planner.IndexDef, oldRow, newRow row.Row, acc *mutationSet) error {
	if oldRow != nil {
		if err := e.retireDriving(def, oldRow, acc); err != nil {
			return err
		}
	}
	if newRow != nil {
		joined, err := e.lookupJoined(def, newRow)
		if err != nil {
			return err
		}
		for _, lr := range joined {
			if err := acc.put(def, newRow, lr); err != nil {
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
func (e *Engine) retireDriving(def *planner.IndexDef, old row.Row, acc *mutationSet) error {
	ks, ok := e.store.(KeyScanner)
	if !ok {
		joined, err := e.lookupJoined(def, old)
		if err != nil {
			return err
		}
		for _, lr := range joined {
			if err := acc.delete(def, old, lr); err != nil {
				return err
			}
		}
		return nil
	}
	driving := e.schema.Tables[def.Driving]
	// One buffer holds old's encoding of each driving key column, the
	// leading ones first, which form the scan's prefix, then its end.
	size := 0
	for _, kc := range def.KeyCols {
		if kc.Source != def.DrivingEff {
			continue
		}
		v, ok := old[kc.Column]
		if !ok {
			return nil // no entry was built without its key column
		}
		size += keycodec.SizeHint(v)
	}
	buf := make([]byte, 0, 2*size)
	// want[i] is key column i's encoding under old when it is one of the
	// driving table's primary-key columns.
	want := make([][]byte, len(def.KeyCols))
	var prefix []byte
	var prefixCols []string
	lead := true
	for i, kc := range def.KeyCols {
		if kc.Source != def.DrivingEff {
			lead = false
			continue
		}
		at := len(buf)
		var err error
		if buf, err = keycodec.AppendElem(buf, old[kc.Column], kc.Desc); err != nil {
			return err
		}
		enc := buf[at:len(buf):len(buf)]
		if lead {
			prefix = buf[:len(buf):len(buf)]
			prefixCols = append(prefixCols, kc.Column)
		}
		if slices.Contains(driving.PrimaryKey, kc.Column) {
			want[i] = enc
		}
	}
	bound := drivingRowsBound(driving, prefixCols) * max(def.LookedFanout, 1)
	if bound <= 0 {
		return fmt.Errorf("view: %s: no cardinality bound for the entries under %s's key prefix", def.Name, def.Driving)
	}
	_, end := keycodec.AppendPrefixEnd(buf, prefix)
	keys, err := ks.ScanKeys(def.Namespace, prefix, end, bound+1)
	if err != nil {
		return err
	}
	if len(keys) > bound {
		return fmt.Errorf("%w: %s: more than %d entries match prefix in %s",
			ErrCardinalityViolated, def.Name, bound, def.Namespace)
	}
	for _, key := range keys {
		rest, match := key, true
		for i, kc := range def.KeyCols {
			n, err := keycodec.ElemLen(rest, kc.Desc)
			if err != nil {
				return fmt.Errorf("view: %s: entry key: %w", def.Name, err)
			}
			match = match && (want[i] == nil || bytes.Equal(rest[:n], want[i]))
			rest = rest[n:]
		}
		if match {
			acc.add(Mutation{Namespace: def.Namespace, Key: key})
		}
	}
	return nil
}

// drivingRowsBound is the most rows of t that agree on cols: one when
// cols hold t's primary key, else the least cardinality declared on
// one of them (0: none declared).
func drivingRowsBound(t *query.TableDef, cols []string) int {
	if len(t.PrimaryKey) > 0 && !slices.ContainsFunc(t.PrimaryKey, func(pk string) bool { return !slices.Contains(cols, pk) }) {
		return 1
	}
	best := 0
	for _, c := range cols {
		if card, ok := t.Cardinality[c]; ok && (best == 0 || card < best) {
			best = card
		}
	}
	return best
}

// lookedSide maintains a join view when the looked-up (joined) table
// changes: find every driving row pointing at it (through the reverse
// index or a PK-prefix scan — both bounded) and rewrite those entries.
func (e *Engine) lookedSide(def *planner.IndexDef, oldRow, newRow row.Row, acc *mutationSet) error {
	pkRow := newRow
	if pkRow == nil {
		pkRow = oldRow
	}
	joinVal, ok := pkRow[def.JoinRightCol]
	if !ok {
		return fmt.Errorf("view: %s: looked row lacks join column %q", def.Name, def.JoinRightCol)
	}
	drivers, err := e.lookupDrivers(def, joinVal)
	if err != nil {
		return err
	}
	for _, dr := range drivers {
		if oldRow != nil {
			if err := acc.delete(def, dr, oldRow); err != nil {
				return err
			}
		}
		if newRow != nil {
			if err := acc.put(def, dr, newRow); err != nil {
				return err
			}
		}
	}
	return nil
}

// lookupJoined fetches the looked-table rows joining with the driving
// row: one row for a full-PK join, up to LookedFanout for a prefix
// join.
func (e *Engine) lookupJoined(def *planner.IndexDef, driving row.Row) ([]row.Row, error) {
	joinVal, ok := driving[def.JoinLeftCol]
	if !ok {
		return nil, fmt.Errorf("view: %s: driving row lacks join column %q", def.Name, def.JoinLeftCol)
	}
	ns := planner.TableNamespace(def.Looked)
	looked := e.schema.Tables[def.Looked]
	if def.LookedFanout <= 1 {
		key, err := row.EncodeKey(row.Row{def.JoinRightCol: joinVal}, looked.PrimaryKey)
		if err != nil {
			return nil, err
		}
		r, found, err := e.store.GetRow(ns, key)
		if err != nil || !found {
			return nil, err
		}
		return []row.Row{r}, nil
	}
	// Prefix join: bounded scan of the looked table.
	return e.boundedPrefixScan(ns, joinVal, def.LookedFanout, def.Name)
}

// lookupDrivers finds driving rows whose join column equals joinVal.
func (e *Engine) lookupDrivers(def *planner.IndexDef, joinVal any) ([]row.Row, error) {
	driving := e.schema.Tables[def.Driving]
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
		return e.boundedPrefixScan(planner.TableNamespace(def.Driving), joinVal, bound, def.Name)
	}
	aux, ok := e.auxFor[def.Driving+"."+def.JoinLeftCol]
	if !ok {
		return nil, fmt.Errorf("view: %s: reverse index %s missing", def.Name,
			planner.ReverseIndexName(def.Driving, def.JoinLeftCol))
	}
	return e.boundedPrefixScan(aux.Namespace, joinVal, bound, def.Name)
}

func (e *Engine) boundedPrefixScan(namespace string, prefixVal any, bound int, indexName string) ([]row.Row, error) {
	// One buffer holds the prefix, then its end.
	buf, err := keycodec.Append(make([]byte, 0, 2*keycodec.SizeHint(prefixVal)), prefixVal)
	if err != nil {
		return nil, err
	}
	prefix := buf[:len(buf):len(buf)]
	_, end := keycodec.AppendPrefixEnd(buf, prefix)
	rows, err := e.store.ScanRows(namespace, prefix, end, bound+1)
	if err != nil {
		return nil, err
	}
	if len(rows) > bound {
		return nil, fmt.Errorf("%w: %s: more than %d rows match prefix in %s",
			ErrCardinalityViolated, indexName, bound, namespace)
	}
	return rows, nil
}

// mutationSet is one Mutations call's output: its mutations, one per
// (namespace, key) in the order each key first came, and the buffer
// their keys and values are appended to. A put wins over a delete, and
// a later put over an earlier one, so an update whose old and new rows
// share a key becomes a single overwrite.
type mutationSet struct {
	buf  []byte
	muts []Mutation
	// at indexes muts by namespace and key once there are too many to
	// search one by one.
	at map[string]int
}

// delete adds the deletion of def's entry for the driving row d and the
// looked row l.
func (ms *mutationSet) delete(def *planner.IndexDef, d, l row.Row) error {
	start := len(ms.buf)
	buf, err := planner.AppendEntryKey(ms.buf, def, d, l)
	if err != nil {
		return err
	}
	ms.buf = buf
	ms.add(Mutation{Namespace: def.Namespace, Key: buf[start:len(buf):len(buf)]})
	return nil
}

// put adds def's entry for d and l.
func (ms *mutationSet) put(def *planner.IndexDef, d, l row.Row) error {
	start := len(ms.buf)
	buf, err := planner.AppendEntryKey(ms.buf, def, d, l)
	if err != nil {
		return err
	}
	mid := len(buf)
	if buf, err = planner.AppendEntryValue(buf, def, d, l); err != nil {
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
	if ms.at != nil {
		ms.at[id(m)] = len(ms.muts) - 1
	}
}

// find is the index of m's namespace and key in ms.muts.
func (ms *mutationSet) find(m Mutation) (int, bool) {
	if ms.at == nil && len(ms.muts) < 16 {
		i := slices.IndexFunc(ms.muts, func(o Mutation) bool { return o.Namespace == m.Namespace && bytes.Equal(o.Key, m.Key) })
		return i, i >= 0
	}
	if ms.at == nil {
		ms.at = make(map[string]int, 2*len(ms.muts))
		for i, o := range ms.muts {
			ms.at[id(o)] = i
		}
	}
	i, ok := ms.at[id(m)]
	return i, ok
}

func id(m Mutation) string { return m.Namespace + "\x00" + string(m.Key) }
