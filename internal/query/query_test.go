package query

import (
	"strings"
	"testing"

	"scads/internal/row"
)

// socialSchema is the paper's §3.2 running example.
const socialSchema = `
-- The paper's social network schema.
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1

QUERY friends
SELECT * FROM friendships WHERE f1 = ?user LIMIT 5000

QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`

func TestParseSocialSchema(t *testing.T) {
	s, err := Parse(socialSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tables) != 2 || len(s.Queries) != 3 {
		t.Fatalf("tables=%d queries=%d", len(s.Tables), len(s.Queries))
	}

	users := s.Tables["users"]
	if users == nil || len(users.Columns) != 3 {
		t.Fatalf("users = %+v", users)
	}
	if c, ok := users.Column("birthday"); !ok || c.Type != row.Int {
		t.Fatalf("birthday column = %+v, %v", c, ok)
	}
	if !users.IsPrimaryKey([]string{"id"}) {
		t.Fatal("users PK wrong")
	}

	fr := s.Tables["friendships"]
	if !fr.IsPrimaryKey([]string{"f1", "f2"}) {
		t.Fatalf("friendships PK = %v", fr.PrimaryKey)
	}
	if fr.Cardinality["f1"] != 5000 || fr.Cardinality["f2"] != 5000 {
		t.Fatalf("cardinality = %v", fr.Cardinality)
	}

	q := s.Queries["friendsWithUpcomingBirthdays"]
	if q == nil {
		t.Fatal("join query missing")
	}
	if q.From.Table != "friendships" || q.From.Alias != "f" {
		t.Fatalf("From = %+v", q.From)
	}
	if q.Join == nil || q.Join.Right.Table != "users" || q.Join.Right.Alias != "p" {
		t.Fatalf("Join = %+v", q.Join)
	}
	if q.Join.LeftCol.String() != "f.f2" || q.Join.RightCol.String() != "p.id" {
		t.Fatalf("join cols = %s = %s", q.Join.LeftCol, q.Join.RightCol)
	}
	if len(q.Where) != 1 || !q.Where[0].IsParam || q.Where[0].Param != "user" {
		t.Fatalf("Where = %+v", q.Where)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Col.String() != "p.birthday" || q.OrderBy[0].Desc {
		t.Fatalf("OrderBy = %+v", q.OrderBy)
	}
	if q.Limit != 50 {
		t.Fatalf("Limit = %d", q.Limit)
	}
}

func TestParsePredicatesAndLiterals(t *testing.T) {
	src := `
ENTITY events (
    id string PRIMARY KEY,
    kind string,
    score float,
    at int,
    public bool
)
QUERY recentPublic
SELECT * FROM events
WHERE kind = 'party' AND public = true AND score >= 4.5 AND at > ?since
ORDER BY at DESC LIMIT 20
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q := s.Queries["recentPublic"]
	if len(q.Where) != 4 {
		t.Fatalf("Where = %+v", q.Where)
	}
	if q.Where[0].Literal != "party" {
		t.Fatalf("string literal = %v", q.Where[0].Literal)
	}
	if q.Where[1].Literal != true {
		t.Fatalf("bool literal = %v", q.Where[1].Literal)
	}
	if q.Where[2].Literal != 4.5 || q.Where[2].Op != OpGe {
		t.Fatalf("float literal = %+v", q.Where[2])
	}
	if !q.Where[3].IsParam || q.Where[3].Op != OpGt {
		t.Fatalf("param pred = %+v", q.Where[3])
	}
	if !q.OrderBy[0].Desc {
		t.Fatal("DESC not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty entity name", "ENTITY ( id string PRIMARY KEY )"},
		{"no primary key", "ENTITY t ( a string )"},
		{"unknown type", "ENTITY t ( a blob PRIMARY KEY )"},
		{"dup column", "ENTITY t ( a string PRIMARY KEY, a int )"},
		{"dup entity", "ENTITY t ( a string PRIMARY KEY ) ENTITY t ( b string PRIMARY KEY )"},
		{"bad pk column", "ENTITY t ( a string, PRIMARY KEY (zzz) )"},
		{"bad cardinality col", "ENTITY t ( a string PRIMARY KEY, CARDINALITY b 5 )"},
		{"zero cardinality", "ENTITY t ( a string PRIMARY KEY, CARDINALITY a 0 )"},
		{"dup cardinality", "ENTITY t ( a string PRIMARY KEY, CARDINALITY a 5, CARDINALITY a 6 )"},
		{"two pks", "ENTITY t ( a string PRIMARY KEY, b string PRIMARY KEY )"},
		{"missing limit", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM t WHERE a = ?x"},
		{"zero limit", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM t LIMIT 0"},
		{"unknown table", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM ghost LIMIT 1"},
		{"unknown column", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM t WHERE nope = ?x LIMIT 1"},
		{"unknown qualifier", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT z.a FROM t LIMIT 1"},
		{"unqualified in join", "ENTITY t ( a string PRIMARY KEY ) ENTITY u ( b string PRIMARY KEY ) QUERY q SELECT * FROM t x JOIN u y ON x.a = y.b WHERE a = ?p LIMIT 1"},
		{"dup query", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM t LIMIT 1 QUERY q SELECT * FROM t LIMIT 1"},
		{"bare question mark", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM t WHERE a = ? LIMIT 1"},
		{"unterminated string", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT * FROM t WHERE a = 'oops LIMIT 1"},
		{"join dup alias", "ENTITY t ( a string PRIMARY KEY ) QUERY q SELECT x.* FROM t x JOIN t x ON x.a = x.a LIMIT 1"},
		{"garbage", "HELLO WORLD"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: parsed without error", c.name)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	s := MustParse(socialSchema)
	for _, name := range s.QueryOrder {
		q := s.Queries[name]
		// Re-parse the rendered query against the same entities.
		src := `
ENTITY users ( id string PRIMARY KEY, name string, birthday int )
ENTITY friendships ( f1 string, f2 string, PRIMARY KEY (f1, f2), CARDINALITY f1 5000, CARDINALITY f2 5000 )
` + q.String()
		s2, err := Parse(src)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v\nrendered: %s", name, err, q.String())
		}
		q2 := s2.Queries[name]
		if q2.String() != q.String() {
			t.Fatalf("round trip changed query:\n%s\n%s", q.String(), q2.String())
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	src := `
entity t ( a string primary key )
query q select * from t where a = ?x limit 5
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries["q"].Limit != 5 {
		t.Fatal("lowercase keywords not accepted")
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := `
-- a comment
ENTITY t ( a string PRIMARY KEY ) -- trailing
QUERY q SELECT * FROM t LIMIT 1
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestResolveTable(t *testing.T) {
	s := MustParse(socialSchema)
	q := s.Queries["friendsWithUpcomingBirthdays"]
	if tb, ok := s.ResolveTable(q, "f"); !ok || tb.Name != "friendships" {
		t.Fatalf("ResolveTable(f) = %v %v", tb, ok)
	}
	if tb, ok := s.ResolveTable(q, "p"); !ok || tb.Name != "users" {
		t.Fatalf("ResolveTable(p) = %v %v", tb, ok)
	}
	if _, ok := s.ResolveTable(q, "zzz"); ok {
		t.Fatal("ResolveTable resolved unknown alias")
	}
}

func TestNegativeNumberLiteral(t *testing.T) {
	src := `
ENTITY t ( a string PRIMARY KEY, n int )
QUERY q SELECT * FROM t WHERE a = ?x AND n > -5 LIMIT 3
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries["q"].Where[1].Literal != int64(-5) {
		t.Fatalf("negative literal = %v", s.Queries["q"].Where[1].Literal)
	}
}

func TestOpString(t *testing.T) {
	ops := map[CompareOp]string{OpEq: "=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q", op, op.String())
		}
	}
	if !strings.Contains(CompareOp(9).String(), "9") {
		t.Error("unknown op string")
	}
}

func BenchmarkParseSocialSchema(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(socialSchema); err != nil {
			b.Fatal(err)
		}
	}
}
