package planner

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"scads/internal/analyzer"
	"scads/internal/keycodec"
	"scads/internal/query"
	"scads/internal/row"
)

const socialSchema = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    since int,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1

QUERY friends
SELECT * FROM friendships WHERE f1 = ?user LIMIT 5000

QUERY recentFriends
SELECT * FROM friendships WHERE f1 = ?user ORDER BY since DESC LIMIT 20

QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50

QUERY friendsOfFriends
SELECT b.* FROM friendships a JOIN friendships b ON a.f2 = b.f1
WHERE a.f1 = ?user LIMIT 200
`

func compile(t testing.TB) (*query.Schema, *Output) {
	t.Helper()
	s := query.MustParse(socialSchema)
	results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	return s, out
}

func TestCompileShapes(t *testing.T) {
	_, out := compile(t)
	if len(out.Plans) != 5 {
		t.Fatalf("plans = %d", len(out.Plans))
	}

	fu := out.Plans["findUser"]
	if fu.Access != AccessPKGet || fu.Namespace != "tbl.users" || fu.Index != nil {
		t.Fatalf("findUser = %+v", fu)
	}
	if len(fu.EqBindings) != 1 || fu.EqBindings[0].Param != "user" {
		t.Fatalf("findUser bindings = %+v", fu.EqBindings)
	}

	// friends: eq col f1 is a PK prefix — no index needed.
	fr := out.Plans["friends"]
	if fr.Access != AccessTableScan || fr.Namespace != "tbl.friendships" {
		t.Fatalf("friends = %+v", fr)
	}

	// recentFriends: DESC order on non-PK column forces an index.
	rf := out.Plans["recentFriends"]
	if rf.Access != AccessIndexScan || rf.Index == nil {
		t.Fatalf("recentFriends = %+v", rf)
	}
	wantKey := []KeyCol{
		{Source: "friendships", Column: "f1"},
		{Source: "friendships", Column: "since", Desc: true},
		{Source: "friendships", Column: "f2"},
	}
	for i, kc := range rf.Index.KeyCols {
		if kc != wantKey[i] {
			t.Fatalf("recentFriends key[%d] = %+v, want %+v", i, kc, wantKey[i])
		}
	}

	// Birthdays: join view keyed (f1, birthday, f2).
	bd := out.Plans["friendsWithUpcomingBirthdays"]
	if bd.Access != AccessIndexScan || bd.Index == nil || bd.Index.Looked != "users" {
		t.Fatalf("birthdays = %+v", bd)
	}
	gotCols := make([]string, len(bd.Index.KeyCols))
	for i, kc := range bd.Index.KeyCols {
		gotCols[i] = kc.Source + "." + kc.Column
	}
	want := []string{"f.f1", "p.birthday", "f.f2"}
	for i := range want {
		if gotCols[i] != want[i] {
			t.Fatalf("birthdays key = %v, want %v", gotCols, want)
		}
	}
	// Projection is users' columns.
	if len(bd.Index.Project) != 3 || bd.Index.Project[0].Source != "p" {
		t.Fatalf("birthdays project = %+v", bd.Index.Project)
	}

	// friends-of-friends: prefix join, key must include both PKs.
	fof := out.Plans["friendsOfFriends"]
	if fof.Index.LookedFanout != 5000 {
		t.Fatalf("fof LookedFanout = %d", fof.Index.LookedFanout)
	}
	gotCols = gotCols[:0]
	for _, kc := range fof.Index.KeyCols {
		gotCols = append(gotCols, kc.Source+"."+kc.Column)
	}
	joined := strings.Join(gotCols, ",")
	if !strings.Contains(joined, "a.f1") || !strings.Contains(joined, "a.f2") || !strings.Contains(joined, "b.f2") {
		t.Fatalf("fof key = %v", gotCols)
	}
}

func TestAuxReverseIndexCreated(t *testing.T) {
	_, out := compile(t)
	var rev *IndexDef
	for _, def := range out.Indexes {
		if def.Aux && def.Name == ReverseIndexName("friendships", "f2") {
			rev = def
		}
	}
	if rev == nil {
		t.Fatal("reverse index on friendships.f2 not created")
	}
	if rev.KeyCols[0].Column != "f2" || rev.KeyCols[1].Column != "f1" {
		t.Fatalf("reverse key = %+v", rev.KeyCols)
	}
	// Aux indexes are deduplicated and come after query indexes.
	count := 0
	sawQueryIndex := false
	for _, def := range out.Indexes {
		if def.Name == rev.Name {
			count++
			if !sawQueryIndex {
				t.Fatal("aux index sorted before query indexes")
			}
		}
		if !def.Aux {
			sawQueryIndex = true
		}
	}
	if count != 1 {
		t.Fatalf("reverse index appears %d times", count)
	}
}

func TestMaintenanceTableMatchesFigure3(t *testing.T) {
	_, out := compile(t)
	// Figure 3's structure: the birthday view updates on friendships *
	// and on users.birthday; friend-style indexes update on
	// friendships *.
	find := func(idx, table, field string) bool {
		for _, e := range out.Maintenance {
			if e.Index == idx && e.Table == table && e.Field == field {
				return true
			}
		}
		return false
	}
	if !find("view_friendsWithUpcomingBirthdays", "friendships", "*") {
		t.Error("missing: birthday view <- friendships *")
	}
	if !find("view_friendsWithUpcomingBirthdays", "users", "birthday") {
		t.Error("missing: birthday view <- users.birthday")
	}
	if find("view_friendsWithUpcomingBirthdays", "users", "*") {
		t.Error("birthday view should trigger on users.birthday, not users.*")
	}
	if !find("view_friendsOfFriends", "friendships", "*") {
		t.Error("missing: fof view <- friendships *")
	}
	if !find("idx_recentFriends", "friendships", "*") {
		t.Error("missing: recentFriends index <- friendships *")
	}
	rendered := FormatMaintenanceTable(out.Maintenance)
	if !strings.Contains(rendered, "Index") || !strings.Contains(rendered, "birthday") {
		t.Fatalf("rendered table:\n%s", rendered)
	}
}

func TestEncodeEntryKeyOrdering(t *testing.T) {
	_, out := compile(t)
	def := out.Plans["friendsWithUpcomingBirthdays"].Index

	mk := func(user, friend string, bday int64) []byte {
		key, err := appendEntryKey(nil, def,
			row.Row{"f1": user, "f2": friend},
			row.Row{"id": friend, "birthday": bday})
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	// Same user: earlier birthday sorts first regardless of friend ID.
	a := mk("alice", "zed", 100)
	b := mk("alice", "bob", 200)
	c := mk("carol", "ann", 50)
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Fatal("view key ordering wrong")
	}
}

func TestEncodeEntryKeyDesc(t *testing.T) {
	_, out := compile(t)
	def := out.Plans["recentFriends"].Index
	mk := func(since int64, f2 string) []byte {
		key, err := appendEntryKey(nil, def, row.Row{"f1": "alice", "f2": f2, "since": since}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	newer := mk(200, "bob")
	older := mk(100, "carol")
	if bytes.Compare(newer, older) >= 0 {
		t.Fatal("DESC column does not sort newest-first")
	}
}

func TestEncodeEntryKeyErrors(t *testing.T) {
	_, out := compile(t)
	def := out.Plans["friendsWithUpcomingBirthdays"].Index
	if _, err := appendEntryKey(nil, def, row.Row{"f1": "a"}, nil); err == nil {
		t.Fatal("missing source row accepted")
	}
	if _, err := appendEntryKey(nil, def, row.Row{"f1": "a"}, row.Row{"id": "b"}); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := appendEntryValue(nil, def, row.Row{"f1": "a"}, nil); err == nil {
		t.Fatal("missing source row accepted for the value")
	}
}

func TestBuildEntryValue(t *testing.T) {
	_, out := compile(t)
	def := out.Plans["friendsWithUpcomingBirthdays"].Index
	enc, err := appendEntryValue(nil, def,
		row.Row{"f1": "alice", "f2": "bob", "since": int64(1)},
		row.Row{"id": "bob", "name": "Bob", "birthday": int64(321)})
	if err != nil {
		t.Fatal(err)
	}
	val, err := row.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if val["id"] != "bob" || val["name"] != "Bob" || val["birthday"] != int64(321) {
		t.Fatalf("value = %v", val)
	}
	if _, ok := val["f1"]; ok {
		t.Fatal("driving columns leaked into p.* projection")
	}
}

// TestEntryValueIsRowEncoding: an entry value appended column by column
// is byte for byte row.Encode of the projected row map, for every index
// of the schemas here, a repeated SELECT column and a widened residual
// filter column included.
func TestEntryValueIsRowEncoding(t *testing.T) {
	const extra = `
ENTITY msgs (
    channel string,
    ts int,
    body string,
    score float,
    pinned bool,
    PRIMARY KEY (channel, ts),
    CARDINALITY channel 100
)
QUERY pinnedBodies SELECT body, pinned, body FROM msgs WHERE pinned = ?p ORDER BY score LIMIT 10
QUERY topScores SELECT body FROM msgs WHERE channel = ?c AND score >= ?min ORDER BY ts DESC LIMIT 10
`
	s := query.MustParse(socialSchema + extra)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]row.Row{
		"users":       {"id": "bob", "name": "Bob", "birthday": int64(321)},
		"friendships": {"f1": "alice", "f2": "bob", "since": int64(7)},
		"msgs":        {"channel": "c1", "ts": int64(5), "body": "hi", "score": 2.5, "pinned": true},
	}
	seen := map[string]bool{}
	for _, def := range out.Indexes {
		seen[def.Name] = true
		d := rows[def.Driving]
		var l row.Row
		if def.Looked != "" {
			l = rows[def.Looked]
		}
		projected := row.Row{}
		for _, pc := range def.Project {
			src := d
			if pc.Source != def.DrivingEff {
				src = l
			}
			projected[pc.Column] = src[pc.Column]
		}
		want, err := row.Encode(projected)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendEntryValue([]byte("prefix"), def, d, l)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("%s: entry value %x, row.Encode %x", def.Name, got[len("prefix"):], want)
		}
	}
	for _, name := range []string{"idx_pinnedBodies", "idx_topScores", "view_friendsWithUpcomingBirthdays"} {
		if !seen[name] {
			t.Errorf("schema compiled no index %s: %v", name, seen)
		}
	}
	if p := out.Plans["pinnedBodies"].Index.Project; len(p) != 2 {
		t.Errorf("repeated SELECT column kept twice: %+v", p)
	}
	if top := out.Plans["topScores"]; len(top.Index.Project) != 2 || len(top.Project) != 1 {
		t.Errorf("topScores stores %+v and reads %+v, want body and score stored, body read", top.Index.Project, top.Project)
	}
}

func TestComputeBoundsEquality(t *testing.T) {
	_, out := compile(t)
	plan := out.Plans["friends"]
	start, end, err := ComputeBounds(plan, map[string]any{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if start == nil || end == nil || bytes.Compare(start, end) >= 0 {
		t.Fatalf("bounds = %x .. %x", start, end)
	}
	// A key for alice falls inside; bob outside.
	def := &IndexDef{DrivingEff: "friendships", KeyCols: plan.KeyCols}
	aliceKey, _ := appendEntryKey(nil, def, row.Row{"f1": "alice", "f2": "m"}, nil)
	bobKey, _ := appendEntryKey(nil, def, row.Row{"f1": "bob", "f2": "a"}, nil)
	if !(bytes.Compare(start, aliceKey) <= 0 && bytes.Compare(aliceKey, end) < 0) {
		t.Fatal("alice key outside bounds")
	}
	if bytes.Compare(bobKey, end) < 0 && bytes.Compare(bobKey, start) >= 0 {
		t.Fatal("bob key inside alice bounds")
	}
}

func TestComputeBoundsMissingParam(t *testing.T) {
	_, out := compile(t)
	if _, _, err := ComputeBounds(out.Plans["friends"], nil); err == nil {
		t.Fatal("missing param accepted")
	}
}

func TestComputeBoundsRangeOps(t *testing.T) {
	src := `
ENTITY msgs (
    channel string,
    ts int,
    PRIMARY KEY (channel, ts),
    CARDINALITY channel 10000
)
QUERY after SELECT * FROM msgs WHERE channel = ?c AND ts > ?since LIMIT 50
QUERY atLeast SELECT * FROM msgs WHERE channel = ?c AND ts >= ?since LIMIT 50
QUERY before SELECT * FROM msgs WHERE channel = ?c AND ts < ?until LIMIT 50
QUERY atMost SELECT * FROM msgs WHERE channel = ?c AND ts <= ?until LIMIT 50
QUERY inChannel SELECT * FROM msgs WHERE channel = ?c LIMIT 50
`
	s := query.MustParse(src)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	key := func(ts int64) []byte {
		k, _ := appendEntryKey(nil, &IndexDef{DrivingEff: "msgs", KeyCols: out.Plans["after"].KeyCols},
			row.Row{"channel": "c1", "ts": ts}, nil)
		return k
	}
	params := map[string]any{"c": "c1", "since": 100, "until": 100}
	contains := func(plan *Plan, ts int64) bool {
		start, end, err := ComputeBounds(plan, params)
		if err != nil {
			t.Fatal(err)
		}
		k := key(ts)
		return bytes.Compare(k, start) >= 0 && (end == nil || bytes.Compare(k, end) < 0)
	}
	cases := []struct {
		plan     string
		ts       int64
		expected bool
	}{
		{"after", 100, false}, {"after", 101, true},
		{"atLeast", 99, false}, {"atLeast", 100, true},
		{"before", 100, false}, {"before", 99, true},
		{"atMost", 100, true}, {"atMost", 101, false},
	}
	for _, c := range cases {
		if got := contains(out.Plans[c.plan], c.ts); got != c.expected {
			t.Errorf("%s contains ts=%d: %v, want %v", c.plan, c.ts, got, c.expected)
		}
	}
	// The bounds are the prefix, the bound and their PrefixEnds, built in
	// one allocation — also for a value whose 0x00 bytes outgrow the
	// buffer's size hint, at the cost of growing it.
	for _, channel := range []string{"c1", "c\x00\x00"} {
		params := map[string]any{"c": channel, "since": 100, "until": 100}
		prefix := keycodec.MustEncode(channel)
		bound := keycodec.MustEncode(channel, int64(100))
		for plan, want := range map[string][2][]byte{
			"after":     {keycodec.PrefixEnd(bound), keycodec.PrefixEnd(prefix)},
			"atLeast":   {bound, keycodec.PrefixEnd(prefix)},
			"before":    {prefix, bound},
			"atMost":    {prefix, keycodec.PrefixEnd(bound)},
			"inChannel": {prefix, keycodec.PrefixEnd(prefix)},
		} {
			start, end, err := ComputeBounds(out.Plans[plan], params)
			if err != nil || !bytes.Equal(start, want[0]) || !bytes.Equal(end, want[1]) {
				t.Errorf("%s(%q) = [%x, %x), %v; want [%x, %x)", plan, channel, start, end, err, want[0], want[1])
			}
			if channel != "c1" {
				continue
			}
			if allocs := testing.AllocsPerRun(100, func() { ComputeBounds(out.Plans[plan], params) }); allocs != 1 {
				t.Errorf("%s: ComputeBounds allocates %.0f times, want 1", plan, allocs)
			}
		}
	}
}

func TestComputeBoundsDescRange(t *testing.T) {
	src := `
ENTITY msgs (
    channel string,
    ts int,
    PRIMARY KEY (channel, ts),
    CARDINALITY channel 10000
)
QUERY recent SELECT * FROM msgs WHERE channel = ?c AND ts > ?since ORDER BY ts DESC LIMIT 50
`
	s := query.MustParse(src)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	plan := out.Plans["recent"]
	if plan.Access != AccessIndexScan || !plan.Range.Desc {
		t.Fatalf("plan = %+v", plan)
	}
	start, end, err := ComputeBounds(plan, map[string]any{"c": "c1", "since": 100})
	if err != nil {
		t.Fatal(err)
	}
	key := func(ts int64) []byte {
		k, _ := appendEntryKey(nil, plan.Index, row.Row{"channel": "c1", "ts": ts}, nil)
		return k
	}
	in := func(k []byte) bool {
		return bytes.Compare(k, start) >= 0 && (end == nil || bytes.Compare(k, end) < 0)
	}
	if in(key(100)) {
		t.Error("ts=100 included by strict >")
	}
	if !in(key(101)) || !in(key(500)) {
		t.Error("ts>100 excluded")
	}
	// Descending order: larger ts sorts earlier.
	if bytes.Compare(key(500), key(101)) >= 0 {
		t.Error("desc index not newest-first")
	}
}

func TestSelectStarInJoinRejected(t *testing.T) {
	src := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY friendships ( f1 string, f2 string, PRIMARY KEY (f1, f2), CARDINALITY f1 5000, CARDINALITY f2 5000 )
QUERY q SELECT * FROM friendships f JOIN users p ON f.f2 = p.id WHERE f.f1 = ?u LIMIT 5
`
	s := query.MustParse(src)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s, results); err == nil {
		t.Fatal("bare SELECT * in join accepted")
	}
}

func TestOutputColumnCollisionRejected(t *testing.T) {
	src := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY friendships ( f1 string, f2 string, name string, PRIMARY KEY (f1, f2), CARDINALITY f1 5000, CARDINALITY f2 5000 )
QUERY q SELECT f.name, p.name FROM friendships f JOIN users p ON f.f2 = p.id WHERE f.f1 = ?u LIMIT 5
`
	s := query.MustParse(src)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s, results); err == nil {
		t.Fatal("colliding output columns accepted")
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessPKGet.String() != "pk-get" || AccessTableScan.String() != "table-scan" || AccessIndexScan.String() != "index-scan" {
		t.Fatal("AccessKind strings")
	}
}

func BenchmarkCompileSocialSchema(b *testing.B) {
	s := query.MustParse(socialSchema)
	results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(s, results); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeBounds(b *testing.B) {
	_, out := compile(b)
	plan := out.Plans["friendsWithUpcomingBirthdays"]
	params := map[string]any{"user": "alice"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ComputeBounds(plan, params); err != nil {
			b.Fatal(err)
		}
	}
}

const residualSchema = `
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

func compileResidual(t testing.TB) *Output {
	t.Helper()
	s := query.MustParse(residualSchema)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestResidualFilterCompiled(t *testing.T) {
	out := compileResidual(t)

	// "hot": ts folds into the key range (base-table scan), score is a
	// residual filter; base rows carry every column, so no widening and
	// the declared projection stands.
	hot := out.Plans["hot"]
	if hot == nil || hot.Access != AccessTableScan {
		t.Fatalf("hot plan = %+v", hot)
	}
	if len(hot.Residual) != 1 || hot.Residual[0].Column != "score" || hot.Residual[0].Op != query.OpGe {
		t.Fatalf("hot residual = %+v", hot.Residual)
	}
	if hot.Range == nil || hot.Range.Bind.Param != "since" {
		t.Fatalf("hot range = %+v", hot.Range)
	}

	// "topRecent": the score inequality conflicts with ORDER BY ts and
	// is demoted to a residual; the index projection is widened to
	// store score for node-side evaluation, and the plan narrows back
	// to the declared output.
	top := out.Plans["topRecent"]
	if top == nil || top.Access != AccessIndexScan {
		t.Fatalf("topRecent plan = %+v", top)
	}
	if len(top.Residual) != 1 || top.Residual[0].Column != "score" {
		t.Fatalf("topRecent residual = %+v", top.Residual)
	}
	stored := map[string]bool{}
	for _, pc := range top.Index.Project {
		stored[pc.Column] = true
	}
	if !stored["score"] {
		t.Fatalf("index projection not widened with filter column: %+v", top.Index.Project)
	}
	if len(top.Project) != 2 {
		t.Fatalf("plan projection should narrow back to declared output, got %+v", top.Project)
	}
	for _, pc := range top.Project {
		if pc.Column == "score" {
			t.Fatalf("declared output gained the filter column: %+v", top.Project)
		}
	}
}

func TestComputeFiltersEncodesComparably(t *testing.T) {
	out := compileResidual(t)
	hot := out.Plans["hot"]

	filters, err := ComputeFilters(hot, map[string]any{"a": "ann", "since": int64(3), "minscore": 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(filters) != 1 || filters[0].Column != "score" || filters[0].Op != query.OpGe {
		t.Fatalf("filters = %+v", filters)
	}
	// The encoded literal must compare correctly against encoded row
	// values: 16 < 17 <= 17 < 18 in byte order.
	for val, want := range map[int64]int{16: -1, 17: 0, 18: 1} {
		enc, err := row.EncodeKey(row.Row{"score": val}, []string{"score"})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Compare(enc, filters[0].Value); got != want {
			t.Fatalf("compare(enc(%d), filter) = %d, want %d", val, got, want)
		}
	}

	if _, err := ComputeFilters(hot, map[string]any{"a": "ann", "since": int64(3)}); err == nil {
		t.Fatal("missing filter parameter accepted")
	}
}

const projectionSchema = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    since int,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY getStar
SELECT * FROM users WHERE id = ?u LIMIT 1
QUERY getEvery
SELECT birthday, id, name FROM users WHERE id = ?u LIMIT 1
QUERY getName
SELECT name FROM users WHERE id = ?u LIMIT 1
QUERY scanStar
SELECT * FROM friendships WHERE f1 = ?u LIMIT 100
QUERY scanEvery
SELECT f2, since, f1 FROM friendships WHERE f1 = ?u LIMIT 100
QUERY scanF2
SELECT f2 FROM friendships WHERE f1 = ?u LIMIT 100
`

// TestWholeRowSelectHasNoProjection: a base-table access whose SELECT
// list names every column of the table reads the stored row as it is,
// so its plan carries no projection; a narrowing list keeps one.
func TestWholeRowSelectHasNoProjection(t *testing.T) {
	s := query.MustParse(projectionSchema)
	results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query  string
		access AccessKind
		want   []string // nil: no projection
	}{
		{"getStar", AccessPKGet, nil},
		{"getEvery", AccessPKGet, nil},
		{"getName", AccessPKGet, []string{"name"}},
		{"scanStar", AccessTableScan, nil},
		{"scanEvery", AccessTableScan, nil},
		{"scanF2", AccessTableScan, []string{"f2"}},
	}
	for _, c := range cases {
		p := out.Plans[c.query]
		if p == nil || p.Access != c.access {
			t.Fatalf("%s: plan = %+v, want access %v", c.query, p, c.access)
		}
		var got []string
		for _, pc := range p.Project {
			got = append(got, pc.Column)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: Project = %v, want %v", c.query, got, c.want)
		}
	}
}

// appendEntryKey is AppendKey for the row maps d and l, encoded first.
func appendEntryKey(dst []byte, def *IndexDef, d, l row.Row) ([]byte, error) {
	dc, err := columnsOf(d)
	if err != nil {
		return nil, err
	}
	lc, err := columnsOf(l)
	if err != nil {
		return nil, err
	}
	return def.AppendKey(dst, dc, lc)
}

// appendEntryValue is AppendValue for the row maps d and l, encoded
// first.
func appendEntryValue(dst []byte, def *IndexDef, d, l row.Row) ([]byte, error) {
	dc, err := columnsOf(d)
	if err != nil {
		return nil, err
	}
	lc, err := columnsOf(l)
	if err != nil {
		return nil, err
	}
	return def.AppendValue(dst, dc, lc)
}

// columnsOf reads r's encoding; a nil row has none.
func columnsOf(r row.Row) (*row.Columns, error) {
	if r == nil {
		return nil, nil
	}
	enc, err := row.Encode(r)
	if err != nil {
		return nil, err
	}
	c := new(row.Columns)
	return c, c.Reset(enc)
}
