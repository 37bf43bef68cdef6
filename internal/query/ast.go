// Package query implements scadsQL, the restricted SQL of paper §3.2:
// developers declare entities (with the cardinality constraints that
// make update work bounded) and named, parameterised query templates
// ahead of time. The language deliberately cannot express ad-hoc
// queries — SELECTs must name a template's parameters, carry a LIMIT,
// and join along declared relationships, which is what lets the
// analyzer prove every query is a bounded contiguous index lookup.
//
// Example (the paper's social network):
//
//	ENTITY users (
//	    id string PRIMARY KEY,
//	    name string,
//	    birthday int
//	)
//	ENTITY friendships (
//	    f1 string,
//	    f2 string,
//	    PRIMARY KEY (f1, f2),
//	    CARDINALITY f1 5000,
//	    CARDINALITY f2 5000
//	)
//	QUERY friendsWithUpcomingBirthdays
//	SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
//	WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
package query

import (
	"fmt"
	"strings"

	"scads/internal/row"
)

// Schema holds everything a scadsQL program declares.
type Schema struct {
	Tables  map[string]*TableDef
	Queries map[string]*QueryDef
	// Order preserves declaration order for deterministic output.
	TableOrder []string
	QueryOrder []string
}

// TableDef declares one entity.
type TableDef struct {
	Name       string
	Columns    []row.Column
	PrimaryKey []string
	// Cardinality bounds the number of rows matching an equality on
	// the column — e.g. friendships.f1 ≤ 5000 encodes Facebook's
	// friend cap (§2.3). Columns without a bound are unbounded.
	Cardinality map[string]int
}

// Column returns the column definition by name.
func (t *TableDef) Column(name string) (row.Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return row.Column{}, false
}

// IsPrimaryKey reports whether cols exactly equals the primary key.
func (t *TableDef) IsPrimaryKey(cols []string) bool {
	if len(cols) != len(t.PrimaryKey) {
		return false
	}
	for i := range cols {
		if cols[i] != t.PrimaryKey[i] {
			return false
		}
	}
	return true
}

// ColRef references a (possibly alias-qualified) column. Column "*"
// means all columns of the qualifier.
type ColRef struct {
	Qualifier string // alias or table name; may be empty in single-table queries
	Column    string
}

// String renders the reference.
func (c ColRef) String() string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the effective name the query refers to this table by.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// CompareOp is a predicate operator.
type CompareOp int

// Supported operators.
const (
	OpEq CompareOp = iota
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Predicate is one WHERE conjunct: column op (parameter | literal).
type Predicate struct {
	Col     ColRef
	Op      CompareOp
	IsParam bool
	Param   string // without the leading '?'
	Literal any    // normalised row value when !IsParam
}

// String renders the predicate.
func (p Predicate) String() string {
	rhs := fmt.Sprintf("%v", p.Literal)
	if p.IsParam {
		rhs = "?" + p.Param
	} else if s, ok := p.Literal.(string); ok {
		rhs = "'" + s + "'"
	}
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, rhs)
}

// OrderCol is one ORDER BY term.
type OrderCol struct {
	Col  ColRef
	Desc bool
}

// JoinClause is the single supported join form: JOIN right ON
// left-col = right-col.
type JoinClause struct {
	Right    TableRef
	LeftCol  ColRef
	RightCol ColRef
}

// QueryDef is one declared query template.
type QueryDef struct {
	Name    string
	Select  []ColRef
	From    TableRef
	Join    *JoinClause
	Where   []Predicate
	OrderBy []OrderCol
	Limit   int
}

// String renders the query template in parseable form.
func (q *QueryDef) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "QUERY %s SELECT ", q.Name)
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		for i, c := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	fmt.Fprintf(&b, " FROM %s", q.From.Table)
	if q.From.Alias != "" {
		fmt.Fprintf(&b, " %s", q.From.Alias)
	}
	if q.Join != nil {
		fmt.Fprintf(&b, " JOIN %s", q.Join.Right.Table)
		if q.Join.Right.Alias != "" {
			fmt.Fprintf(&b, " %s", q.Join.Right.Alias)
		}
		fmt.Fprintf(&b, " ON %s = %s", q.Join.LeftCol, q.Join.RightCol)
	}
	for i, p := range q.Where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
	for i, o := range q.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.Col.String())
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	return b.String()
}
