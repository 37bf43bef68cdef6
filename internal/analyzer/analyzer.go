// Package analyzer performs SCADS's scale-independence analysis
// (paper §3.1–3.2): every declared query template is either proven to
// be a bounded contiguous range lookup over a (possibly precomputed)
// index, with O(K) index-maintenance work per base update, or it is
// rejected before it can ever run. "A query that is not a lookup in a
// pre-computed index will be rejected by SCADS, unlike in a
// traditional system which would allow the query to run slowly."
//
// The canonical rejection is the Twitter shape: a join fanning out
// through a column with no declared cardinality bound, where a single
// base update could touch an unbounded number of index entries.
package analyzer

import (
	"errors"
	"fmt"

	"scads/internal/query"
)

// Config bounds what the analyzer will accept.
type Config struct {
	// MaxUpdateWork is K in the paper's O(K) update requirement: the
	// largest number of index-entry mutations one base-table update
	// may trigger. Default 10000.
	MaxUpdateWork int
}

// maxLimit caps any query's LIMIT and the rows a residual filter may
// visit.
const maxLimit = 10000

func (c Config) withDefaults() Config {
	if c.MaxUpdateWork <= 0 {
		c.MaxUpdateWork = 10000
	}
	return c
}

// ErrUnbounded is wrapped by every rejection for easy testing with
// errors.Is.
var ErrUnbounded = errors.New("analyzer: query is not scale-independent")

// Shape classifies the physical form a query compiles to.
type Shape int

const (
	// ShapePKLookup reads the base table by primary key directly.
	ShapePKLookup Shape = iota
	// ShapeIndexScan reads a single-table secondary index.
	ShapeIndexScan
	// ShapeJoinView reads a materialized two-table join view.
	ShapeJoinView
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapePKLookup:
		return "pk-lookup"
	case ShapeIndexScan:
		return "index-scan"
	case ShapeJoinView:
		return "join-view"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// Result is the proof object for one accepted query.
type Result struct {
	Query *query.QueryDef
	Shape Shape

	// Driving is the table the WHERE clause filters.
	Driving *query.TableDef
	// Looked is the join's right table (nil otherwise).
	Looked *query.TableDef

	// EqPreds are the equality conjuncts, in WHERE order; they become
	// the index key prefix.
	EqPreds []query.Predicate
	// RangePred is the at-most-one inequality conjunct folded into the
	// contiguous key range.
	RangePred *query.Predicate
	// ResidualPreds are inequality conjuncts the key range cannot
	// express. They are pushed down to storage nodes and evaluated
	// against each visited row, so accepting them requires the
	// equality prefix to bound the visited row count by declared
	// cardinality — the scan stays scale-independent even though the
	// filters are applied after the range lookup.
	ResidualPreds []query.Predicate
	// OrderCols is the validated ORDER BY list.
	OrderCols []query.OrderCol

	// Fanout bounds how many driving-table rows match the equality
	// prefix (1 for a full-PK match).
	Fanout int
	// LookedFanout bounds how many looked-table rows one driving row
	// joins to: 1 for a full-PK join, the declared cardinality for a
	// PK-prefix join (the friends-of-friends shape).
	LookedFanout int
	// UpdateWork bounds index maintenance triggered by one base-table
	// update, per the declared cardinalities.
	UpdateWork int
	// ServersTouched is the worst-case number of storage nodes one
	// execution contacts (always a small constant).
	ServersTouched int
}

// Analyze checks every query in the schema. It returns results for all
// accepted queries; the error (if any) aggregates each rejection.
func Analyze(s *query.Schema, cfg Config) (map[string]*Result, error) {
	cfg = cfg.withDefaults()
	out := make(map[string]*Result, len(s.Queries))
	var rejections []error
	for _, name := range s.QueryOrder {
		res, err := AnalyzeQuery(s, s.Queries[name], cfg)
		if err != nil {
			rejections = append(rejections, err)
			continue
		}
		out[name] = res
	}
	return out, errors.Join(rejections...)
}

// AnalyzeQuery checks a single query template against the schema.
func AnalyzeQuery(s *query.Schema, q *query.QueryDef, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if q.Limit > maxLimit {
		return nil, fmt.Errorf("%w: query %s: LIMIT %d exceeds maximum %d",
			ErrUnbounded, q.Name, q.Limit, maxLimit)
	}
	if q.Join == nil {
		return analyzeSingle(s, q, cfg)
	}
	return analyzeJoin(s, q, cfg)
}

func analyzeSingle(s *query.Schema, q *query.QueryDef, cfg Config) (*Result, error) {
	driving, _ := s.ResolveTable(q, q.From.Name())
	res := &Result{Query: q, Driving: driving, ServersTouched: 1}

	if err := splitPredicates(q, q.From.Name(), res); err != nil {
		return nil, err
	}
	// When ORDER BY is declared, only an inequality on the first order
	// column can be the contiguous key range; any other inequality is
	// demoted to a residual filter so the index still serves the order
	// directly.
	if res.RangePred != nil && len(q.OrderBy) > 0 && q.OrderBy[0].Col.Column != res.RangePred.Col.Column {
		demoted := *res.RangePred
		res.RangePred = nil
		res.ResidualPreds = append([]query.Predicate{demoted}, res.ResidualPreds...)
	}
	if err := checkResiduals(q, driving, res, cfg); err != nil {
		return nil, err
	}
	if err := checkOrderBy(q, q.From.Name(), res); err != nil {
		return nil, err
	}

	eqCols := predCols(res.EqPreds)
	if driving.IsPrimaryKey(eqCols) && res.RangePred == nil && len(res.ResidualPreds) == 0 && len(res.OrderCols) == 0 {
		res.Shape = ShapePKLookup
		res.Fanout = 1
		res.UpdateWork = 0 // the base row is the index
		return res, nil
	}
	res.Shape = ShapeIndexScan
	res.Fanout = fanoutBound(driving, eqCols, q.Limit)
	res.UpdateWork = 1 // one index entry rewritten per base update
	if res.UpdateWork > cfg.MaxUpdateWork {
		return nil, fmt.Errorf("%w: query %s: update work %d exceeds K=%d",
			ErrUnbounded, q.Name, res.UpdateWork, cfg.MaxUpdateWork)
	}
	return res, nil
}

// checkResiduals validates pushed-down filter conjuncts: every column
// must exist on the driving table, and the equality prefix must bound
// the rows a node visits (declared cardinality, or a full primary key)
// — a residual filter rejects rows *after* they are visited, so LIMIT
// alone no longer caps the scan work.
func checkResiduals(q *query.QueryDef, driving *query.TableDef, res *Result, cfg Config) error {
	if len(res.ResidualPreds) == 0 {
		return nil
	}
	for _, p := range res.ResidualPreds {
		if _, ok := driving.Column(p.Col.Column); !ok {
			return fmt.Errorf("%w: query %s: residual predicate %s references unknown column %s.%s",
				ErrUnbounded, q.Name, p, driving.Name, p.Col.Column)
		}
	}
	bound := fanoutBound(driving, predCols(res.EqPreds), 0)
	if bound == 0 {
		return fmt.Errorf("%w: query %s: residual filter needs the equality prefix to bound the scan — "+
			"declare a CARDINALITY for %s (LIMIT caps returned rows, not rows a filtered scan must visit)",
			ErrUnbounded, q.Name, driving.Name)
	}
	if bound > maxLimit {
		return fmt.Errorf("%w: query %s: residual filter may visit %d rows, exceeding the %d-row scan bound",
			ErrUnbounded, q.Name, bound, maxLimit)
	}
	return nil
}

func analyzeJoin(s *query.Schema, q *query.QueryDef, cfg Config) (*Result, error) {
	driving, _ := s.ResolveTable(q, q.From.Name())
	looked, _ := s.ResolveTable(q, q.Join.Right.Name())
	res := &Result{Query: q, Driving: driving, Looked: looked, Shape: ShapeJoinView, ServersTouched: 1}

	// The join must navigate left column → right primary key, so each
	// driving row contributes exactly one joined row.
	left, right := q.Join.LeftCol, q.Join.RightCol
	if left.Qualifier != q.From.Name() || right.Qualifier != q.Join.Right.Name() {
		// Allow the reversed spelling "ON p.id = f.f2".
		if right.Qualifier == q.From.Name() && left.Qualifier == q.Join.Right.Name() {
			left, right = right, left
		} else {
			return nil, fmt.Errorf("%w: query %s: join condition must relate the FROM table to the joined table",
				ErrUnbounded, q.Name)
		}
	}
	switch {
	case looked.IsPrimaryKey([]string{right.Column}):
		res.LookedFanout = 1
	case len(looked.PrimaryKey) > 0 && looked.PrimaryKey[0] == right.Column:
		// PK-prefix join (e.g. friendships self-join for friends of
		// friends): bounded only if the prefix column declares a
		// cardinality.
		card, ok := looked.Cardinality[right.Column]
		if !ok {
			return nil, fmt.Errorf("%w: query %s: PK-prefix join on %s.%s needs a CARDINALITY bound",
				ErrUnbounded, q.Name, looked.Name, right.Column)
		}
		res.LookedFanout = card
	default:
		return nil, fmt.Errorf("%w: query %s: join must target the primary key (or a bounded PK prefix) of %s (got %s); "+
			"non-key joins have unbounded fan-out", ErrUnbounded, q.Name, looked.Name, right)
	}

	// WHERE must filter the driving table only (the view key starts
	// with those columns).
	if err := splitPredicates(q, q.From.Name(), res); err != nil {
		return nil, err
	}
	if len(res.ResidualPreds) > 0 {
		return nil, fmt.Errorf("%w: query %s: multiple range predicates (%s, %s) cannot form one contiguous key range over a join view",
			ErrUnbounded, q.Name, *res.RangePred, res.ResidualPreds[0])
	}
	if len(res.EqPreds) == 0 {
		return nil, fmt.Errorf("%w: query %s: a join view needs at least one equality predicate on %s to bound the scan",
			ErrUnbounded, q.Name, driving.Name)
	}

	// ORDER BY may use either side: it becomes part of the view key.
	if err := checkOrderByJoin(q, res); err != nil {
		return nil, err
	}

	// Fan-out: how many driving rows can match the equality prefix?
	eqCols := predCols(res.EqPreds)
	res.Fanout = fanoutBound(driving, eqCols, 0)
	if res.Fanout > 0 {
		res.Fanout *= res.LookedFanout
		if q.Limit > 0 && q.Limit < res.Fanout {
			res.Fanout = q.Limit
		}
	}
	if res.Fanout == 0 {
		return nil, fmt.Errorf("%w: query %s: no CARDINALITY declared for %s.%s — a single lookup could fan out without bound "+
			"(the Twitter case: unbounded followers would not map into SCADS without modification)",
			ErrUnbounded, q.Name, driving.Name, eqCols[0])
	}

	// Update work. A driving-table change rewrites LookedFanout view
	// entries. A looked-table change must locate every driving row
	// pointing at it: that reverse lookup needs a declared cardinality
	// on the join column.
	reverse, ok := driving.Cardinality[left.Column]
	if !ok {
		if driving.IsPrimaryKey([]string{left.Column}) {
			reverse = 1
		} else {
			return nil, fmt.Errorf("%w: query %s: no CARDINALITY declared for %s.%s — an update to %s would trigger unbounded index maintenance",
				ErrUnbounded, q.Name, driving.Name, left.Column, looked.Name)
		}
	}
	res.UpdateWork = reverse + res.LookedFanout
	if res.UpdateWork > cfg.MaxUpdateWork {
		return nil, fmt.Errorf("%w: query %s: update work %d (reverse fan-in of %s.%s) exceeds K=%d",
			ErrUnbounded, q.Name, res.UpdateWork, driving.Name, left.Column, cfg.MaxUpdateWork)
	}
	return res, nil
}

// splitPredicates partitions WHERE into equality prefix + at most one
// range predicate, all referencing tableName.
func splitPredicates(q *query.QueryDef, tableName string, res *Result) error {
	for i := range q.Where {
		p := q.Where[i]
		qual := p.Col.Qualifier
		if qual != "" && qual != tableName {
			return fmt.Errorf("%w: query %s: predicate %s filters a non-driving table; only the FROM table may be filtered",
				ErrUnbounded, q.Name, p)
		}
		if p.Op == query.OpEq {
			if res.RangePred != nil {
				return fmt.Errorf("%w: query %s: equality predicate %s after range predicate %s — the index key cannot express this",
					ErrUnbounded, q.Name, p, *res.RangePred)
			}
			res.EqPreds = append(res.EqPreds, p)
			continue
		}
		if res.RangePred != nil {
			// Only one inequality can shape the contiguous key range;
			// the rest become residual filters pushed down to storage
			// (checkResiduals decides whether that stays bounded — join
			// views reject them outright).
			pred := p
			res.ResidualPreds = append(res.ResidualPreds, pred)
			continue
		}
		pred := p
		res.RangePred = &pred
	}
	// Duplicate-column equality (a = ?x AND a = ?y) is nonsense.
	seen := map[string]bool{}
	for _, p := range res.EqPreds {
		if seen[p.Col.Column] {
			return fmt.Errorf("%w: query %s: column %s constrained twice", ErrUnbounded, q.Name, p.Col)
		}
		seen[p.Col.Column] = true
	}
	if res.RangePred != nil && seen[res.RangePred.Col.Column] {
		return fmt.Errorf("%w: query %s: column %s has both equality and range predicates",
			ErrUnbounded, q.Name, res.RangePred.Col)
	}
	for _, p := range res.ResidualPreds {
		if seen[p.Col.Column] {
			return fmt.Errorf("%w: query %s: column %s has both equality and range predicates",
				ErrUnbounded, q.Name, p.Col)
		}
	}
	return nil
}

// checkOrderBy validates single-table ORDER BY: if a range predicate
// exists, the first order column must be the range column (otherwise
// results would need a post-scan sort, breaking the bounded-work
// guarantee).
func checkOrderBy(q *query.QueryDef, tableName string, res *Result) error {
	for _, o := range q.OrderBy {
		if o.Col.Qualifier != "" && o.Col.Qualifier != tableName {
			return fmt.Errorf("%w: query %s: ORDER BY %s references an unknown table", ErrUnbounded, q.Name, o.Col)
		}
	}
	res.OrderCols = q.OrderBy
	if res.RangePred != nil && len(q.OrderBy) > 0 && q.OrderBy[0].Col.Column != res.RangePred.Col.Column {
		return fmt.Errorf("%w: query %s: ORDER BY %s conflicts with range predicate on %s — one contiguous index range cannot produce this order",
			ErrUnbounded, q.Name, q.OrderBy[0].Col, res.RangePred.Col)
	}
	// Mixed-direction multi-column ORDER BY cannot be served by one
	// forward or reverse scan of a single index.
	for i := 1; i < len(q.OrderBy); i++ {
		if q.OrderBy[i].Desc != q.OrderBy[0].Desc {
			return fmt.Errorf("%w: query %s: mixed ASC/DESC ordering needs a post-scan sort", ErrUnbounded, q.Name)
		}
	}
	return nil
}

func checkOrderByJoin(q *query.QueryDef, res *Result) error {
	res.OrderCols = q.OrderBy
	if res.RangePred != nil && len(q.OrderBy) > 0 {
		first := q.OrderBy[0].Col
		if first.Qualifier == q.From.Name() && first.Column == res.RangePred.Col.Column {
			// range col leads the order: fine
		} else {
			return fmt.Errorf("%w: query %s: ORDER BY %s conflicts with range predicate on %s",
				ErrUnbounded, q.Name, first, res.RangePred.Col)
		}
	}
	for i := 1; i < len(q.OrderBy); i++ {
		if q.OrderBy[i].Desc != q.OrderBy[0].Desc {
			return fmt.Errorf("%w: query %s: mixed ASC/DESC ordering needs a post-scan sort", ErrUnbounded, q.Name)
		}
	}
	return nil
}

// fanoutBound returns the declared bound on rows matching an equality
// prefix, 1 for a full primary key, or limit when the query's LIMIT
// caps the read anyway (single-table case). Returns 0 for "unbounded".
func fanoutBound(t *query.TableDef, eqCols []string, limit int) int {
	if t.IsPrimaryKey(eqCols) {
		return 1
	}
	best := 0
	for _, c := range eqCols {
		if card, ok := t.Cardinality[c]; ok && (best == 0 || card < best) {
			best = card
		}
	}
	if best == 0 {
		return limit // 0 when no limit applies (join case)
	}
	if limit > 0 && limit < best {
		return limit
	}
	return best
}

func predCols(preds []query.Predicate) []string {
	out := make([]string, len(preds))
	for i, p := range preds {
		out[i] = p.Col.Column
	}
	return out
}
