// Package planner compiles analyzer-accepted query templates into
// physical artifacts (paper §3.2): the materialized indices/views each
// query reads, the bounded range-scan plan that executes it, and the
// table of index-maintenance triggers — Figure 3 of the paper — that
// tells the update path exactly which structures to refresh when a
// base table changes. An IndexDef is also the one recipe of its
// entries: AppendKey and AppendValue encode an entry straight from the
// encodings of its driving and looked rows.
package planner

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"scads/internal/analyzer"
	"scads/internal/keycodec"
	"scads/internal/query"
	"scads/internal/row"
)

// Namespace naming conventions.
const (
	tablePrefix = "tbl."
	indexPrefix = "idx."
)

// TableNamespace returns the storage namespace holding a base table.
func TableNamespace(table string) string { return tablePrefix + table }

// KeyCol is one component of an index or table key.
type KeyCol struct {
	// Source is the effective table name within the query ("f", "p");
	// for table-scoped structures it is the table name itself.
	Source string
	Column string
	// Desc marks ORDER BY ... DESC columns, stored complement-encoded
	// so forward scans yield descending order.
	Desc bool
}

// ProjectCol names one stored/output column.
type ProjectCol struct {
	Source string
	Column string
}

// IndexDef describes one materialized index or join view.
type IndexDef struct {
	Name      string
	Namespace string
	// ServesQuery is the query this index answers ("" for auxiliary
	// reverse indexes shared by maintenance).
	ServesQuery string
	Aux         bool

	// Driving is the base table whose rows drive entries; DrivingEff
	// is its effective name inside the query.
	Driving    string
	DrivingEff string

	// Looked is the join's right table ("" for single-table indexes).
	Looked       string
	LookedEff    string
	JoinLeftCol  string // driving column equated to the looked key
	JoinRightCol string // looked PK (or PK-prefix) column
	LookedFanout int    // 1 = full-PK join

	KeyCols []KeyCol
	Project []ProjectCol
}

// AccessKind is how a plan reads data.
type AccessKind int

// Access paths. All of them touch a bounded contiguous key range.
const (
	AccessPKGet AccessKind = iota
	AccessTableScan
	AccessIndexScan
)

// String implements fmt.Stringer.
func (a AccessKind) String() string {
	switch a {
	case AccessPKGet:
		return "pk-get"
	case AccessTableScan:
		return "table-scan"
	case AccessIndexScan:
		return "index-scan"
	default:
		return fmt.Sprintf("access(%d)", int(a))
	}
}

// Binding supplies one key element at execution time: either a named
// template parameter or a literal fixed in the query text.
type Binding struct {
	Param   string
	Literal any
}

// RangeBinding is the optional inequality on the column right after
// the equality prefix.
type RangeBinding struct {
	Op   query.CompareOp
	Bind Binding
	Desc bool
}

// Plan is the executable form of one query template.
type Plan struct {
	Query string
	Shape analyzer.Shape

	Access    AccessKind
	Namespace string
	Index     *IndexDef // nil for base-table access
	Table     *query.TableDef

	// KeyCols is the key layout of the access path; EqBindings bind
	// its leading columns.
	KeyCols    []KeyCol
	EqBindings []Binding
	Range      *RangeBinding

	Limit int
	// Project applies to the stored row at read time. Base accesses
	// store the full base row, so Project is empty for them when the
	// SELECT list names every column. Index accesses store the
	// pre-projected output row, so Project is empty for them too —
	// unless residual filter columns widened the stored row, in which
	// case Project narrows it back to the declared output.
	Project []ProjectCol
	// Residual holds the inequality conjuncts the key range cannot
	// express. The executor resolves them (ComputeFilters) and pushes
	// them down to storage nodes, which evaluate each visited row
	// before it crosses the wire.
	Residual []ResidualFilter
}

// ResidualFilter is one pushed-down filter conjunct: column, operator,
// and the binding supplying the comparison literal at execution time.
type ResidualFilter struct {
	Column string
	Op     query.CompareOp
	Bind   Binding
}

// Output groups everything compilation produces.
type Output struct {
	Plans   map[string]*Plan
	Indexes []*IndexDef // in deterministic order, aux indexes last
	// Maintenance is the Figure 3 table.
	Maintenance []MaintenanceEntry
}

// MaintenanceEntry is one row of the paper's Figure 3: when Field of
// Table changes, Index must be updated.
type MaintenanceEntry struct {
	Index string
	Table string
	Field string
}

// Compile plans every accepted query in the schema.
func Compile(s *query.Schema, results map[string]*analyzer.Result) (*Output, error) {
	out := &Output{Plans: make(map[string]*Plan)}
	indexByName := map[string]*IndexDef{}
	var order []string

	addIndex := func(def *IndexDef) {
		if _, ok := indexByName[def.Name]; ok {
			return
		}
		indexByName[def.Name] = def
		order = append(order, def.Name)
	}

	for _, name := range s.QueryOrder {
		res, ok := results[name]
		if !ok {
			continue // rejected by the analyzer
		}
		plan, defs, err := compileOne(s, res)
		if err != nil {
			return nil, err
		}
		out.Plans[name] = plan
		for _, d := range defs {
			addIndex(d)
		}
	}

	// Queries first, aux structures after, stable within each group.
	sort.SliceStable(order, func(i, j int) bool {
		return !indexByName[order[i]].Aux && indexByName[order[j]].Aux
	})
	for _, n := range order {
		def := indexByName[n]
		def.Project = entryColumns(def.Project)
		out.Indexes = append(out.Indexes, def)
	}
	out.Maintenance = maintenanceTable(out.Indexes)
	return out, nil
}

func compileOne(s *query.Schema, res *analyzer.Result) (*Plan, []*IndexDef, error) {
	q := res.Query
	switch res.Shape {
	case analyzer.ShapePKLookup:
		return compilePKLookup(res)
	case analyzer.ShapeIndexScan:
		return compileSingleTable(res)
	case analyzer.ShapeJoinView:
		return compileJoinView(s, res)
	default:
		return nil, nil, fmt.Errorf("planner: query %s: unknown shape %v", q.Name, res.Shape)
	}
}

func compilePKLookup(res *analyzer.Result) (*Plan, []*IndexDef, error) {
	q := res.Query
	t := res.Driving
	plan := &Plan{
		Query:     q.Name,
		Shape:     res.Shape,
		Access:    AccessPKGet,
		Namespace: TableNamespace(t.Name),
		Table:     t,
		Limit:     q.Limit,
		Project:   baseProject(q, q.From.Name(), t),
	}
	// Bind PK columns in PK order.
	byCol := predsByColumn(res.EqPreds)
	for _, pk := range t.PrimaryKey {
		p := byCol[pk]
		plan.KeyCols = append(plan.KeyCols, KeyCol{Source: q.From.Name(), Column: pk})
		plan.EqBindings = append(plan.EqBindings, bindingOf(p))
	}
	return plan, nil, nil
}

func compileSingleTable(res *analyzer.Result) (*Plan, []*IndexDef, error) {
	q := res.Query
	t := res.Driving
	eff := q.From.Name()

	// Can the base table serve it? The equality columns must be a PK
	// prefix (in some order), the range/first-order column must be the
	// next PK column, any further order columns must continue the PK,
	// and everything must be ascending.
	if plan, ok := tryBaseScan(res); ok {
		return plan, nil, nil
	}

	def := &IndexDef{
		Name:        "idx_" + q.Name,
		ServesQuery: q.Name,
		Driving:     t.Name,
		DrivingEff:  eff,
	}
	def.Namespace = indexPrefix + def.Name
	def.KeyCols = buildKeyCols(res, eff, t, nil, nil)
	def.Project = projectFor(q, eff, t)

	plan := &Plan{
		Query:     q.Name,
		Shape:     res.Shape,
		Access:    AccessIndexScan,
		Namespace: def.Namespace,
		Index:     def,
		Table:     t,
		KeyCols:   def.KeyCols,
		Limit:     q.Limit,
		Residual:  residualFilters(res),
	}
	// Node-side residual evaluation needs the filtered columns present
	// in the stored entry: widen the stored projection and narrow back
	// to the declared output at read time.
	if extra := residualColsMissing(def.Project, plan.Residual); len(extra) > 0 {
		plan.Project = def.Project
		for _, col := range extra {
			def.Project = append(def.Project, ProjectCol{Source: eff, Column: col})
		}
	}
	var err error
	plan.EqBindings, plan.Range, err = bindKey(res, plan.KeyCols)
	if err != nil {
		return nil, nil, err
	}
	return plan, []*IndexDef{def}, nil
}

func compileJoinView(s *query.Schema, res *analyzer.Result) (*Plan, []*IndexDef, error) {
	q := res.Query
	driving, looked := res.Driving, res.Looked
	dEff, lEff := q.From.Name(), q.Join.Right.Name()

	left, right := q.Join.LeftCol, q.Join.RightCol
	if left.Qualifier != dEff { // reversed spelling
		left, right = right, left
	}

	def := &IndexDef{
		Name:         "view_" + q.Name,
		ServesQuery:  q.Name,
		Driving:      driving.Name,
		DrivingEff:   dEff,
		Looked:       looked.Name,
		LookedEff:    lEff,
		JoinLeftCol:  left.Column,
		JoinRightCol: right.Column,
		LookedFanout: res.LookedFanout,
	}
	def.Namespace = indexPrefix + def.Name
	def.KeyCols = buildKeyCols(res, dEff, driving, looked, &lEff)
	var err error
	def.Project, err = joinProject(q, dEff, lEff, driving, looked)
	if err != nil {
		return nil, nil, err
	}

	defs := []*IndexDef{def}
	// Maintenance on a looked-table change needs all driving rows with
	// leftCol = key. If leftCol is not the driving PK's first column,
	// synthesize a reverse index.
	if len(driving.PrimaryKey) == 0 || driving.PrimaryKey[0] != left.Column {
		rev := reverseIndex(driving, left.Column)
		defs = append(defs, rev)
	}

	plan := &Plan{
		Query:     q.Name,
		Shape:     res.Shape,
		Access:    AccessIndexScan,
		Namespace: def.Namespace,
		Index:     def,
		Table:     driving,
		KeyCols:   def.KeyCols,
		Limit:     q.Limit,
	}
	plan.EqBindings, plan.Range, err = bindKey(res, plan.KeyCols)
	if err != nil {
		return nil, nil, err
	}
	return plan, defs, nil
}

// ReverseIndexName names the auxiliary reverse index for
// table.column.
func ReverseIndexName(table, column string) string {
	return "rev_" + table + "_" + column
}

func reverseIndex(t *query.TableDef, col string) *IndexDef {
	def := &IndexDef{
		Name:       ReverseIndexName(t.Name, col),
		Aux:        true,
		Driving:    t.Name,
		DrivingEff: t.Name,
	}
	def.Namespace = indexPrefix + def.Name
	def.KeyCols = []KeyCol{{Source: t.Name, Column: col}}
	for _, pk := range t.PrimaryKey {
		if pk != col {
			def.KeyCols = append(def.KeyCols, KeyCol{Source: t.Name, Column: pk})
		}
	}
	for _, c := range t.Columns {
		def.Project = append(def.Project, ProjectCol{Source: t.Name, Column: c.Name})
	}
	return def
}

// buildKeyCols assembles the key layout: equality prefix, then order
// (or range) columns, then whatever primary-key columns are needed for
// uniqueness.
func buildKeyCols(res *analyzer.Result, dEff string, driving *query.TableDef, looked *query.TableDef, lEff *string) []KeyCol {
	var key []KeyCol
	have := map[string]bool{}
	add := func(src, col string, desc bool) {
		id := src + "." + col
		if have[id] {
			return
		}
		have[id] = true
		key = append(key, KeyCol{Source: src, Column: col, Desc: desc})
	}
	for _, p := range res.EqPreds {
		add(dEff, p.Col.Column, false)
	}
	if len(res.OrderCols) > 0 {
		for _, o := range res.OrderCols {
			src := o.Col.Qualifier
			if src == "" {
				src = dEff
			}
			add(src, o.Col.Column, o.Desc)
		}
	} else if res.RangePred != nil {
		add(dEff, res.RangePred.Col.Column, false)
	}
	for _, pk := range driving.PrimaryKey {
		add(dEff, pk, false)
	}
	if looked != nil && res.LookedFanout > 1 {
		for _, pk := range looked.PrimaryKey {
			add(*lEff, pk, false)
		}
	}
	return key
}

// bindKey produces the equality bindings (and optional range binding)
// for the leading key columns.
func bindKey(res *analyzer.Result, keyCols []KeyCol) ([]Binding, *RangeBinding, error) {
	byCol := predsByColumn(res.EqPreds)
	var eq []Binding
	i := 0
	for ; i < len(keyCols); i++ {
		p, ok := byCol[keyCols[i].Column]
		if !ok {
			break
		}
		eq = append(eq, bindingOf(p))
	}
	if len(eq) != len(res.EqPreds) {
		return nil, nil, fmt.Errorf("planner: query %s: equality predicates do not form the key prefix", res.Query.Name)
	}
	var rb *RangeBinding
	if res.RangePred != nil {
		if i >= len(keyCols) || keyCols[i].Column != res.RangePred.Col.Column {
			return nil, nil, fmt.Errorf("planner: query %s: range column %s is not adjacent to the equality prefix",
				res.Query.Name, res.RangePred.Col)
		}
		rb = &RangeBinding{Op: res.RangePred.Op, Bind: bindingOf(*res.RangePred), Desc: keyCols[i].Desc}
	}
	return eq, rb, nil
}

// tryBaseScan checks whether the base table's PK order already serves
// the query.
func tryBaseScan(res *analyzer.Result) (*Plan, bool) {
	q := res.Query
	t := res.Driving
	eff := q.From.Name()
	byCol := predsByColumn(res.EqPreds)

	n := 0 // matched PK prefix length
	var eq []Binding
	for _, pk := range t.PrimaryKey {
		p, ok := byCol[pk]
		if !ok {
			break
		}
		eq = append(eq, bindingOf(p))
		n++
	}
	if n != len(res.EqPreds) {
		return nil, false // some equality column is not in the PK prefix
	}
	next := n
	var rng *RangeBinding
	if res.RangePred != nil {
		if next >= len(t.PrimaryKey) || t.PrimaryKey[next] != res.RangePred.Col.Column {
			return nil, false
		}
		rng = &RangeBinding{Op: res.RangePred.Op, Bind: bindingOf(*res.RangePred)}
		next++
	}
	for i, o := range res.OrderCols {
		if o.Desc {
			return nil, false // base rows are stored ascending
		}
		// The first order column may coincide with the range column.
		if res.RangePred != nil && i == 0 && o.Col.Column == res.RangePred.Col.Column {
			continue
		}
		if next >= len(t.PrimaryKey) || t.PrimaryKey[next] != o.Col.Column {
			return nil, false
		}
		next++
	}

	var keyCols []KeyCol
	for _, pk := range t.PrimaryKey {
		keyCols = append(keyCols, KeyCol{Source: eff, Column: pk})
	}
	return &Plan{
		Query:      q.Name,
		Shape:      res.Shape,
		Access:     AccessTableScan,
		Namespace:  TableNamespace(t.Name),
		Table:      t,
		KeyCols:    keyCols,
		EqBindings: eq,
		Range:      rng,
		Limit:      q.Limit,
		Project:    baseProject(q, eff, t),
		Residual:   residualFilters(res),
	}, true
}

// residualFilters compiles the analyzer's residual conjuncts into the
// plan's executable filter list.
func residualFilters(res *analyzer.Result) []ResidualFilter {
	if len(res.ResidualPreds) == 0 {
		return nil
	}
	out := make([]ResidualFilter, len(res.ResidualPreds))
	for i, p := range res.ResidualPreds {
		out[i] = ResidualFilter{Column: p.Col.Column, Op: p.Op, Bind: bindingOf(p)}
	}
	return out
}

// residualColsMissing lists filter columns absent from a stored
// projection (they must be widened in for node-side evaluation).
func residualColsMissing(project []ProjectCol, residual []ResidualFilter) []string {
	var out []string
	for _, rf := range residual {
		stored := slices.ContainsFunc(project, func(pc ProjectCol) bool { return pc.Column == rf.Column })
		if !stored && !slices.Contains(out, rf.Column) {
			out = append(out, rf.Column)
		}
	}
	return out
}

func predsByColumn(preds []query.Predicate) map[string]query.Predicate {
	m := make(map[string]query.Predicate, len(preds))
	for _, p := range preds {
		m[p.Col.Column] = p
	}
	return m
}

func bindingOf(p query.Predicate) Binding {
	if p.IsParam {
		return Binding{Param: p.Param}
	}
	return Binding{Literal: p.Literal}
}

// projectFor expands a single-table SELECT list into concrete columns.
func projectFor(q *query.QueryDef, eff string, t *query.TableDef) []ProjectCol {
	if len(q.Select) == 0 {
		out := make([]ProjectCol, len(t.Columns))
		for i, c := range t.Columns {
			out[i] = ProjectCol{Source: eff, Column: c.Name}
		}
		return out
	}
	var out []ProjectCol
	for _, c := range q.Select {
		if c.Column == "*" {
			for _, col := range t.Columns {
				out = append(out, ProjectCol{Source: eff, Column: col.Name})
			}
			continue
		}
		src := c.Qualifier
		if src == "" {
			src = eff
		}
		out = append(out, ProjectCol{Source: src, Column: c.Column})
	}
	return out
}

// baseProject is the read-time projection of a base-table access: the
// SELECT list, or nil when it names every column of the table. The
// write path rejects undeclared columns, so a base row holds only
// declared ones and such a projection is the stored row itself; nil
// lets the row pass through the node untouched and the coordinator
// decode it without narrowing it again.
func baseProject(q *query.QueryDef, eff string, t *query.TableDef) []ProjectCol {
	out := projectFor(q, eff, t)
	named := make(map[string]bool, len(out))
	for _, pc := range out {
		named[pc.Column] = true
	}
	if len(named) != len(t.Columns) {
		return out
	}
	for _, c := range t.Columns {
		if !named[c.Name] {
			return out
		}
	}
	return nil
}

// joinProject expands a join SELECT list, checking for output-name
// collisions.
func joinProject(q *query.QueryDef, dEff, lEff string, driving, looked *query.TableDef) ([]ProjectCol, error) {
	tableOf := func(eff string) *query.TableDef {
		if eff == dEff {
			return driving
		}
		return looked
	}
	var out []ProjectCol
	if len(q.Select) == 0 {
		return nil, fmt.Errorf("planner: query %s: SELECT * is ambiguous in a join; qualify as %s.* or %s.*", q.Name, dEff, lEff)
	}
	for _, c := range q.Select {
		if c.Column == "*" {
			t := tableOf(c.Qualifier)
			for _, col := range t.Columns {
				out = append(out, ProjectCol{Source: c.Qualifier, Column: col.Name})
			}
			continue
		}
		src := c.Qualifier
		out = append(out, ProjectCol{Source: src, Column: c.Column})
	}
	seen := map[string]string{}
	for _, pc := range out {
		if prev, dup := seen[pc.Column]; dup && prev != pc.Source {
			return nil, fmt.Errorf("planner: query %s: output column %q selected from both %s and %s",
				q.Name, pc.Column, prev, pc.Source)
		}
		seen[pc.Column] = pc.Source
	}
	return out, nil
}

// maintenanceTable derives the Figure 3 rows from the index set: for
// each index, which (table, field) changes trigger its maintenance.
// Fields are the key-contributing columns (matching the paper's
// pointer-style indices); the runtime additionally refreshes stored
// values on projected-field changes, which has identical asymptotics.
func maintenanceTable(indexes []*IndexDef) []MaintenanceEntry {
	var out []MaintenanceEntry
	seen := map[string]bool{}
	add := func(e MaintenanceEntry) {
		id := e.Index + "|" + e.Table + "|" + e.Field
		if !seen[id] {
			seen[id] = true
			out = append(out, e)
		}
	}
	for _, def := range indexes {
		// Driving side: inserts/deletes always restructure the index.
		add(MaintenanceEntry{Index: def.Name, Table: def.Driving, Field: "*"})
		if def.Looked == "" || def.Looked == def.Driving {
			// A self-join's looked side is already covered by the
			// driving side's "*" row.
			continue
		}
		// Looked side: key-affecting fields only.
		var fields []string
		for _, kc := range def.KeyCols {
			if kc.Source == def.LookedEff {
				fields = append(fields, kc.Column)
			}
		}
		if len(fields) == 0 {
			add(MaintenanceEntry{Index: def.Name, Table: def.Looked, Field: "*"})
			continue
		}
		for _, f := range fields {
			add(MaintenanceEntry{Index: def.Name, Table: def.Looked, Field: f})
		}
	}
	return out
}

// FormatMaintenanceTable renders the Figure 3 table.
func FormatMaintenanceTable(entries []MaintenanceEntry) string {
	var b strings.Builder
	wIdx, wTbl := len("Index"), len("Table")
	for _, e := range entries {
		if len(e.Index) > wIdx {
			wIdx = len(e.Index)
		}
		if len(e.Table) > wTbl {
			wTbl = len(e.Table)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wIdx, "Index", wTbl, "Table", "Field")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wIdx, e.Index, wTbl, e.Table, e.Field)
	}
	return b.String()
}

// --- index entries, built by the view engine ---

// AppendKey appends to dst the key of def's entry for the encoded
// driving row d and looked row l (nil for a single-table index): each
// key column's element, appended from its encoded value in the row its
// Source names.
func (def *IndexDef) AppendKey(dst []byte, d, l *row.Columns) ([]byte, error) {
	for _, kc := range def.KeyCols {
		v, err := def.value(kc.Source, kc.Column, d, l)
		if err != nil {
			return nil, err
		}
		dst = row.AppendKeyElem(dst, v, kc.Desc)
	}
	return dst, nil
}

// AppendValue appends to dst the stored row of def's entry for d and l,
// each Project column's encoded value copied as it stands. Compile left
// Project in the codec's column order, and stored rows are normalized,
// so the value is row.Encode of the projected row, byte for byte.
func (def *IndexDef) AppendValue(dst []byte, d, l *row.Columns) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(def.Project))) // the codec's column count
	for _, pc := range def.Project {
		v, err := def.value(pc.Source, pc.Column, d, l)
		if err != nil {
			return nil, err
		}
		dst = row.AppendColumnValue(dst, pc.Column, v)
	}
	return dst, nil
}

// value is the encoded value of column in the row source names: d on
// the driving side, l on the looked one.
func (def *IndexDef) value(source, column string, d, l *row.Columns) ([]byte, error) {
	r := d
	if source != def.DrivingEff {
		r = l
		if source != def.LookedEff {
			r = nil
		}
	}
	if r == nil {
		return nil, fmt.Errorf("planner: index %s: no row for source %q", def.Name, source)
	}
	v, ok := r.Value(column)
	if !ok {
		return nil, fmt.Errorf("planner: index %s: row for %q lacks column %q", def.Name, source, column)
	}
	return v, nil
}

// entryColumns is project in the order an encoded row holds its
// columns: sorted by name, each name once, the last of a repeated name
// winning as it would in a row map. It leaves project as it was: a
// plan's read-time projection may share its array.
func entryColumns(project []ProjectCol) []ProjectCol {
	out := slices.Clone(project)
	slices.Reverse(out) // the last of a repeated name sorts first and stays
	slices.SortStableFunc(out, func(a, b ProjectCol) int { return strings.Compare(a.Column, b.Column) })
	return slices.CompactFunc(out, func(a, b ProjectCol) bool { return a.Column == b.Column })
}

// ComputeBounds resolves a plan's bindings against the caller's
// parameters and returns the [start, end) scan range. Both bounds are
// built in one buffer sized from the bound values; neither may be
// written through.
func ComputeBounds(p *Plan, params map[string]any) (start, end []byte, err error) {
	// The values of a key of up to eight columns stay on the stack.
	var vbuf [8]any
	vals := vbuf[:0]
	prefixLen := 0
	for _, b := range p.EqBindings {
		v, err := resolveBinding(b, params)
		if err != nil {
			return nil, nil, fmt.Errorf("planner: query %s: %w", p.Query, err)
		}
		vals = append(vals, v)
		prefixLen += keycodec.SizeHint(v)
	}
	if p.Range == nil {
		if len(vals) == 0 {
			return nil, nil, nil // full (LIMIT-bounded) scan
		}
		buf, err := appendElems(make([]byte, 0, 2*prefixLen), p, vals)
		if err != nil {
			return nil, nil, err
		}
		prefix := buf[:len(buf):len(buf)]
		_, end := keycodec.AppendPrefixEnd(buf, prefix)
		return prefix, end, nil
	}

	v, err := resolveBinding(p.Range.Bind, params)
	if err != nil {
		return nil, nil, fmt.Errorf("planner: query %s: %w", p.Query, err)
	}
	boundLen := prefixLen + keycodec.SizeHint(v)
	op := p.Range.Op
	if p.Range.Desc {
		// Complement encoding flips the comparison direction.
		switch op {
		case query.OpLt:
			op = query.OpGt
		case query.OpLe:
			op = query.OpGe
		case query.OpGt:
			op = query.OpLt
		case query.OpGe:
			op = query.OpLe
		}
	}
	// The buffer holds the bound (the prefix, then the range value),
	// then whichever prefix ends the op needs.
	size := boundLen
	switch op {
	case query.OpGe:
		size += prefixLen
	case query.OpGt:
		size += boundLen + prefixLen
	case query.OpLe:
		size += boundLen
	}
	buf, err := appendElems(make([]byte, 0, size), p, vals)
	if err != nil {
		return nil, nil, err
	}
	prefix := buf[:len(buf):len(buf)]
	if buf, err = keycodec.AppendElem(buf, v, p.Range.Desc); err != nil {
		return nil, nil, err
	}
	bound := buf[:len(buf):len(buf)]

	switch op {
	case query.OpGe:
		_, end := keycodec.AppendPrefixEnd(buf, prefix)
		return bound, end, nil
	case query.OpGt:
		buf, start := keycodec.AppendPrefixEnd(buf, bound)
		_, end := keycodec.AppendPrefixEnd(buf, prefix)
		return start, end, nil
	case query.OpLt:
		return prefix, bound, nil
	case query.OpLe:
		_, end := keycodec.AppendPrefixEnd(buf, bound)
		return prefix, end, nil
	default:
		return nil, nil, fmt.Errorf("planner: query %s: unexpected range op %v", p.Query, op)
	}
}

// appendElems appends the encodings of the equality prefix's values.
func appendElems(buf []byte, p *Plan, vals []any) ([]byte, error) {
	var err error
	for i, v := range vals {
		if buf, err = keycodec.AppendElem(buf, v, p.KeyCols[i].Desc); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Filter is one resolved pushdown predicate: the named column compared
// against the keycodec encoding of the literal. Byte order equals
// value order, so storage nodes evaluate it with one bytes.Compare
// against the encoded row value.
type Filter struct {
	Column string
	Op     query.CompareOp
	Value  []byte
}

// ComputeFilters resolves a plan's residual filters against the
// caller's parameters.
func ComputeFilters(p *Plan, params map[string]any) ([]Filter, error) {
	if len(p.Residual) == 0 {
		return nil, nil
	}
	out := make([]Filter, len(p.Residual))
	for i, rf := range p.Residual {
		v, err := resolveBinding(rf.Bind, params)
		if err != nil {
			return nil, fmt.Errorf("planner: query %s: %w", p.Query, err)
		}
		enc, err := keycodec.Append(nil, v)
		if err != nil {
			return nil, fmt.Errorf("planner: query %s: filter on %s: %w", p.Query, rf.Column, err)
		}
		out[i] = Filter{Column: rf.Column, Op: rf.Op, Value: enc}
	}
	return out, nil
}

func resolveBinding(b Binding, params map[string]any) (any, error) {
	if b.Param == "" {
		return b.Literal, nil
	}
	v, ok := params[b.Param]
	if !ok {
		return nil, fmt.Errorf("missing parameter %q", b.Param)
	}
	return row.Normalize(v), nil
}
