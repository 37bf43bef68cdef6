package scads

import (
	"slices"
	"testing"
)

const residualDDL = `
ENTITY posts (
    author string,
    ts int,
    score int,
    PRIMARY KEY (author, ts),
    CARDINALITY author 1000
)
QUERY hot
SELECT author, ts FROM posts WHERE author = ?a AND ts >= ?since AND score >= ?minscore LIMIT 10
QUERY topRecent
SELECT author, ts FROM posts WHERE author = ?a AND score >= ?minscore ORDER BY ts DESC LIMIT 5
`

func seedResidualCluster(t *testing.T) *LocalCluster {
	t.Helper()
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(residualDDL); err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 30; ts++ {
		if err := lc.Insert("posts", Row{"author": "ann", "ts": ts, "score": (ts * 7) % 30}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return lc
}

// TestQueryResidualFilterPushdown exercises the second inequality
// conjunct: ts shapes the contiguous key range, score travels to the
// storage node as a pushed-down filter.
func TestQueryResidualFilterPushdown(t *testing.T) {
	lc := seedResidualCluster(t)

	rows, err := lc.Query("hot", map[string]any{"a": "ann", "since": 10, "minscore": 20})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: ts in [10, 30) with (ts*7)%30 >= 20, ascending ts.
	var want []int64
	for ts := 10; ts < 30; ts++ {
		if (ts*7)%30 >= 20 {
			want = append(want, int64(ts))
		}
	}
	if len(want) > 10 {
		want = want[:10]
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for i, r := range rows {
		if r["ts"] != want[i] || r["author"] != "ann" {
			t.Fatalf("row %d = %v, want ts %d", i, r, want[i])
		}
		if _, ok := r["score"]; ok {
			t.Fatalf("row %d leaked the filter-only column: %v", i, r)
		}
	}
}

// TestQueryDemotedInequalityWithOrderBy covers the analyzer demotion:
// an inequality that conflicts with ORDER BY becomes a residual filter
// instead of a rejection, the index stores the (widened) filter
// column, and results come back in declared order without it.
func TestQueryDemotedInequalityWithOrderBy(t *testing.T) {
	lc := seedResidualCluster(t)

	rows, err := lc.Query("topRecent", map[string]any{"a": "ann", "minscore": 15})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: the 5 highest ts with (ts*7)%30 >= 15, descending.
	var want []int64
	for ts := 29; ts >= 0 && len(want) < 5; ts-- {
		if (ts*7)%30 >= 15 {
			want = append(want, int64(ts))
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for i, r := range rows {
		if r["ts"] != want[i] {
			t.Fatalf("row %d ts = %v, want %d (descending order broken or filter missed)", i, r["ts"], want[i])
		}
		if _, ok := r["score"]; ok {
			t.Fatalf("row %d leaked widened index column: %v", i, r)
		}
	}

	// The filter must keep tracking updates: drop one row's score below
	// the bar and it must vanish from the result.
	topTS := want[0]
	if err := lc.Update("posts", Row{"author": "ann", "ts": topTS, "score": 0}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rows, err = lc.Query("topRecent", map[string]any{"a": "ann", "minscore": 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r["ts"] == topTS {
			t.Fatalf("updated row still matches the filter: %v", r)
		}
	}
}

const projectionDDL = `
ENTITY people (
    id string PRIMARY KEY,
    name string,
    age int
)
ENTITY posts (
    author string,
    ts int,
    score int,
    PRIMARY KEY (author, ts),
    CARDINALITY author 1000
)
QUERY person
SELECT * FROM people WHERE id = ?id LIMIT 1
QUERY personName
SELECT name FROM people WHERE id = ?id LIMIT 1
QUERY posts
SELECT * FROM posts WHERE author = ?a LIMIT 10
QUERY postTimes
SELECT ts FROM posts WHERE author = ?a LIMIT 10
`

// TestQueryProjectionNarrowsRows: a SELECT of the whole row returns
// every stored column, and a narrowing SELECT returns only the columns
// it declares, on a primary-key get and on a table scan alike.
func TestQueryProjectionNarrowsRows(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(projectionDDL); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("people", Row{"id": "ann", "name": "Ann", "age": 41}); err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 5; ts++ {
		if err := lc.Insert("posts", Row{"author": "ann", "ts": ts, "score": ts * 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query  string
		params map[string]any
		rows   int
		cols   []string
	}{
		{"person", map[string]any{"id": "ann"}, 1, []string{"age", "id", "name"}},
		{"personName", map[string]any{"id": "ann"}, 1, []string{"name"}},
		{"posts", map[string]any{"a": "ann"}, 5, []string{"author", "score", "ts"}},
		{"postTimes", map[string]any{"a": "ann"}, 5, []string{"ts"}},
	} {
		rows, err := lc.Query(c.query, c.params)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if len(rows) != c.rows {
			t.Fatalf("%s = %d rows, want %d", c.query, len(rows), c.rows)
		}
		for i, r := range rows {
			got := make([]string, 0, len(r))
			for col := range r {
				got = append(got, col)
			}
			slices.Sort(got)
			if !slices.Equal(got, c.cols) {
				t.Errorf("%s row %d has columns %v, want %v", c.query, i, got, c.cols)
			}
		}
	}
}
