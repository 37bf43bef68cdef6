package view

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"scads/internal/analyzer"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/row"
)

// mapStore is an in-memory Store for tests. It also applies mutations,
// playing the role of the coordinator's write path.
type mapStore struct {
	data map[string]map[string]row.Row // namespace -> key -> row
}

func newMapStore() *mapStore {
	return &mapStore{data: make(map[string]map[string]row.Row)}
}

func (s *mapStore) GetRow(ns string, key []byte) (row.Row, bool, error) {
	r, ok := s.data[ns][string(key)]
	return r, ok, nil
}

func (s *mapStore) ScanRows(ns string, start, end []byte, limit int) ([]row.Row, error) {
	keys, _ := s.ScanKeys(ns, start, end, limit)
	out := make([]row.Row, len(keys))
	for i, k := range keys {
		out[i] = s.data[ns][string(k)]
	}
	return out, nil
}

func (s *mapStore) ScanKeys(ns string, start, end []byte, limit int) ([][]byte, error) {
	keys := make([]string, 0)
	for k := range s.data[ns] {
		if k >= string(start) && (end == nil || k < string(end)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out [][]byte
	for _, k := range keys {
		if len(out) >= limit {
			break
		}
		out = append(out, []byte(k))
	}
	return out, nil
}

func (s *mapStore) apply(t testing.TB, muts []Mutation) {
	t.Helper()
	for _, m := range muts {
		ns := s.data[m.Namespace]
		if ns == nil {
			ns = make(map[string]row.Row)
			s.data[m.Namespace] = ns
		}
		if m.Value == nil {
			delete(ns, string(m.Key))
		} else {
			r, err := row.Decode(m.Value)
			if err != nil {
				t.Fatal(err)
			}
			ns[string(m.Key)] = r
		}
	}
}

// putBase stores a base-table row directly (simulating the
// coordinator's table write) and runs maintenance.
func (s *mapStore) putBase(t *testing.T, e *Engine, table *query.TableDef, oldRow, newRow row.Row) []Mutation {
	t.Helper()
	ns := planner.TableNamespace(table.Name)
	if s.data[ns] == nil {
		s.data[ns] = make(map[string]row.Row)
	}
	pkRow := newRow
	if pkRow == nil {
		pkRow = oldRow
	}
	key, err := row.EncodeKey(pkRow, table.PrimaryKey)
	if err != nil {
		t.Fatal(err)
	}
	if newRow == nil {
		delete(s.data[ns], string(key))
	} else {
		s.data[ns][string(key)] = newRow
	}
	muts, err := e.Mutations(table.Name, oldRow, newRow)
	if err != nil {
		t.Fatal(err)
	}
	s.apply(t, muts)
	return muts
}

const socialSchema = `
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
QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50

QUERY friendsOfFriends
SELECT b.* FROM friendships a JOIN friendships b ON a.f2 = b.f1
WHERE a.f1 = ?user LIMIT 200
`

func buildEngine(t testing.TB, store Store) (*query.Schema, *planner.Output, *Engine) {
	t.Helper()
	s := query.MustParse(socialSchema)
	results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := planner.Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	return s, out, NewEngine(s, out.Indexes, store)
}

func viewNS(out *planner.Output, q string) string {
	return out.Plans[q].Namespace
}

func TestFriendshipInsertPopulatesView(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	users, friendships := s.Tables["users"], s.Tables["friendships"]

	store.putBase(t, e, users, nil, row.Row{"id": "bob", "name": "Bob", "birthday": int64(321)})
	muts := store.putBase(t, e, friendships, nil, row.Row{"f1": "alice", "f2": "bob"})

	// Expect: one view entry (alice,321,bob), one reverse-index entry,
	// plus fof entries (none: bob has no friends yet... actually edge
	// (alice,bob) contributes a-side: b rows with f1=bob — none; and
	// b-side: a rows with f2=alice — none).
	bdNS := viewNS(out, "friendsWithUpcomingBirthdays")
	if len(store.data[bdNS]) != 1 {
		t.Fatalf("birthday view has %d entries, want 1 (muts: %d)", len(store.data[bdNS]), len(muts))
	}
	for _, v := range store.data[bdNS] {
		if v["name"] != "Bob" || v["birthday"] != int64(321) {
			t.Fatalf("view value = %v", v)
		}
	}
	revNS := "idx." + planner.ReverseIndexName("friendships", "f2")
	if len(store.data[revNS]) != 1 {
		t.Fatalf("reverse index has %d entries", len(store.data[revNS]))
	}
}

func TestBirthdayUpdateRewritesViewKey(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	users, friendships := s.Tables["users"], s.Tables["friendships"]

	bob := row.Row{"id": "bob", "name": "Bob", "birthday": int64(100)}
	store.putBase(t, e, users, nil, bob)
	store.putBase(t, e, friendships, nil, row.Row{"f1": "alice", "f2": "bob"})
	store.putBase(t, e, friendships, nil, row.Row{"f1": "carol", "f2": "bob"})

	bdNS := viewNS(out, "friendsWithUpcomingBirthdays")
	if len(store.data[bdNS]) != 2 {
		t.Fatalf("view entries = %d, want 2", len(store.data[bdNS]))
	}

	// Bob edits his birthday: both friends' view entries must move.
	newBob := row.Row{"id": "bob", "name": "Bob", "birthday": int64(777)}
	muts := store.putBase(t, e, users, bob, newBob)
	if len(muts) != 4 { // 2 deletes + 2 puts
		t.Fatalf("birthday update produced %d mutations, want 4", len(muts))
	}
	if len(store.data[bdNS]) != 2 {
		t.Fatalf("view entries after update = %d", len(store.data[bdNS]))
	}
	for _, v := range store.data[bdNS] {
		if v["birthday"] != int64(777) {
			t.Fatalf("stale birthday in view: %v", v)
		}
	}
}

func TestFriendshipDeleteRemovesViewEntry(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	users, friendships := s.Tables["users"], s.Tables["friendships"]

	store.putBase(t, e, users, nil, row.Row{"id": "bob", "name": "Bob", "birthday": int64(1)})
	edge := row.Row{"f1": "alice", "f2": "bob"}
	store.putBase(t, e, friendships, nil, edge)
	store.putBase(t, e, friendships, edge, nil)

	bdNS := viewNS(out, "friendsWithUpcomingBirthdays")
	if len(store.data[bdNS]) != 0 {
		t.Fatalf("view entries after unfriend = %d", len(store.data[bdNS]))
	}
	revNS := "idx." + planner.ReverseIndexName("friendships", "f2")
	if len(store.data[revNS]) != 0 {
		t.Fatalf("reverse entries after unfriend = %d", len(store.data[revNS]))
	}
}

func TestUserDeleteCleansView(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	users, friendships := s.Tables["users"], s.Tables["friendships"]

	bob := row.Row{"id": "bob", "name": "Bob", "birthday": int64(5)}
	store.putBase(t, e, users, nil, bob)
	store.putBase(t, e, friendships, nil, row.Row{"f1": "alice", "f2": "bob"})
	store.putBase(t, e, users, bob, nil)

	bdNS := viewNS(out, "friendsWithUpcomingBirthdays")
	if len(store.data[bdNS]) != 0 {
		t.Fatalf("view entries after user delete = %d", len(store.data[bdNS]))
	}
}

func TestFriendsOfFriendsCascade(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	friendships := s.Tables["friendships"]

	// alice -> bob, then bob -> carol: fof(alice) must contain carol.
	store.putBase(t, e, friendships, nil, row.Row{"f1": "alice", "f2": "bob"})
	store.putBase(t, e, friendships, nil, row.Row{"f1": "bob", "f2": "carol"})

	fofNS := viewNS(out, "friendsOfFriends")
	found := false
	for _, v := range store.data[fofNS] {
		if v["f1"] == "bob" && v["f2"] == "carol" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fof view missing alice->carol path: %v", store.data[fofNS])
	}

	// Removing bob->carol removes the path.
	store.putBase(t, e, friendships, row.Row{"f1": "bob", "f2": "carol"}, nil)
	for _, v := range store.data[fofNS] {
		if v["f2"] == "carol" {
			t.Fatalf("fof path survived edge removal: %v", store.data[fofNS])
		}
	}
}

func TestInsertBeforeJoinedRowExists(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	users, friendships := s.Tables["users"], s.Tables["friendships"]

	// Friendship lands before the user's profile exists (async world):
	// no view entry yet, and no error.
	store.putBase(t, e, friendships, nil, row.Row{"f1": "alice", "f2": "ghost"})
	bdNS := viewNS(out, "friendsWithUpcomingBirthdays")
	if len(store.data[bdNS]) != 0 {
		t.Fatal("view entry created for missing joined row")
	}
	// When the profile arrives, the looked-side trigger fills the view.
	store.putBase(t, e, users, nil, row.Row{"id": "ghost", "name": "Ghost", "birthday": int64(9)})
	if len(store.data[bdNS]) != 1 {
		t.Fatalf("view entries after late profile = %d, want 1", len(store.data[bdNS]))
	}
}

func TestUpdateSameKeyBecomesSinglePut(t *testing.T) {
	store := newMapStore()
	s, _, e := buildEngine(t, store)
	users := s.Tables["users"]

	bob := row.Row{"id": "bob", "name": "Bob", "birthday": int64(5)}
	store.putBase(t, e, users, nil, bob)
	store.putBase(t, e, s.Tables["friendships"], nil, row.Row{"f1": "alice", "f2": "bob"})

	// Name-only change: view key (f1, birthday, f2) is unchanged, so
	// the old-delete and new-put collapse into one put.
	newBob := row.Row{"id": "bob", "name": "Bobby", "birthday": int64(5)}
	muts, err := e.Mutations("users", bob, newBob)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 1 || muts[0].Value == nil {
		t.Fatalf("muts = %+v, want single put", muts)
	}
	if v, err := row.Decode(muts[0].Value); err != nil || v["name"] != "Bobby" {
		t.Fatalf("value not refreshed: %v, %v", v, err)
	}
}

func TestCardinalityViolationSurfaces(t *testing.T) {
	src := `
ENTITY users ( id string PRIMARY KEY, birthday int )
ENTITY friendships ( f1 string, f2 string, PRIMARY KEY (f1, f2), CARDINALITY f1 5000, CARDINALITY f2 2 )
QUERY q
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`
	s := query.MustParse(src)
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := planner.Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	e := NewEngine(s, out.Indexes, store)

	celeb := row.Row{"id": "celeb", "birthday": int64(1)}
	store.putBase(t, e, s.Tables["users"], nil, celeb)
	// Three fans befriend the celebrity; declared bound is 2.
	for i := 0; i < 3; i++ {
		store.putBase(t, e, s.Tables["friendships"], nil, row.Row{"f1": fmt.Sprintf("fan%d", i), "f2": "celeb"})
	}
	_, err = e.Mutations("users", celeb, row.Row{"id": "celeb", "birthday": int64(2)})
	if !errors.Is(err, ErrCardinalityViolated) {
		t.Fatalf("cardinality violation not surfaced: %v", err)
	}
}

func TestMutationsForUnindexedTable(t *testing.T) {
	store := newMapStore()
	_, _, e := buildEngine(t, store)
	muts, err := e.Mutations("unrelated_table", nil, row.Row{"x": int64(1)})
	if err != nil || len(muts) != 0 {
		t.Fatalf("muts = %v, err = %v", muts, err)
	}
}

func TestIndexesAccessor(t *testing.T) {
	store := newMapStore()
	_, out, e := buildEngine(t, store)
	for _, def := range out.Indexes {
		if !slices.Contains(e.byDriving[def.Driving], def) {
			t.Fatalf("engine does not hold planned index %s", def.Name)
		}
	}
	if !e.Maintains("users") || len(e.byLooked["users"]) == 0 {
		t.Fatal("view_friendsWithUpcomingBirthdays is not maintained from its looked table")
	}
}

func BenchmarkFriendshipInsertMaintenance(b *testing.B) {
	store := newMapStore()
	s, _, e := buildEngine(b, store)
	// Seed users.
	usersNS := planner.TableNamespace("users")
	store.data[usersNS] = make(map[string]row.Row)
	for i := 0; i < 1000; i++ {
		u := row.Row{"id": fmt.Sprintf("u%04d", i), "name": "x", "birthday": int64(i)}
		key, _ := row.EncodeKey(u, s.Tables["users"].PrimaryKey)
		store.data[usersNS][string(key)] = u
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edge := row.Row{"f1": fmt.Sprintf("u%04d", i%1000), "f2": fmt.Sprintf("u%04d", (i+1)%1000)}
		muts, err := e.Mutations("friendships", nil, edge)
		if err != nil {
			b.Fatal(err)
		}
		store.apply(b, muts)
	}
}

// chatSchema drives the PK-prefix reverse-lookup path: the driving
// table's primary key starts with the join column, so looked-table
// changes find their driving rows by scanning the base table directly
// instead of through an auxiliary reverse index.
const chatSchema = `
ENTITY messages (
    room string,
    seq int,
    text string,
    PRIMARY KEY (room, seq),
    CARDINALITY room 100
)
ENTITY rooms (
    id string PRIMARY KEY,
    topic string
)
QUERY messageTopics
SELECT r.* FROM messages m JOIN rooms r ON m.room = r.id
WHERE m.room = ?room LIMIT 100
`

func buildChatEngine(t *testing.T, store Store) (*query.Schema, *planner.Output, *Engine) {
	t.Helper()
	s := query.MustParse(chatSchema)
	results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := planner.Compile(s, results)
	if err != nil {
		t.Fatal(err)
	}
	return s, out, NewEngine(s, out.Indexes, store)
}

func TestReverseLookupViaPKPrefix(t *testing.T) {
	store := newMapStore()
	s, out, e := buildChatEngine(t, store)

	// No auxiliary reverse index should exist: the base table's PK
	// order already serves the reverse lookup.
	for _, def := range out.Indexes {
		if def.Aux {
			t.Fatalf("unexpected aux index %s for PK-prefix join", def.Name)
		}
	}

	msgs := s.Tables["messages"]
	rooms := s.Tables["rooms"]
	store.putBase(t, e, rooms, nil, row.Row{"id": "go", "topic": "gophers"})
	store.putBase(t, e, msgs, nil, row.Row{"room": "go", "seq": int64(1), "text": "hi"})
	store.putBase(t, e, msgs, nil, row.Row{"room": "go", "seq": int64(2), "text": "yo"})

	ns := viewNS(out, "messageTopics")
	if got := len(store.data[ns]); got != 2 {
		t.Fatalf("view entries = %d, want 2", got)
	}

	// Updating the looked row must rewrite both entries through the
	// PK-prefix scan of the driving table.
	muts := store.putBase(t, e, rooms,
		row.Row{"id": "go", "topic": "gophers"},
		row.Row{"id": "go", "topic": "generics"})
	if len(muts) == 0 {
		t.Fatal("room update produced no view mutations")
	}
	for k, r := range store.data[ns] {
		if r["topic"] != "generics" {
			t.Fatalf("entry %q kept stale topic %v", k, r["topic"])
		}
	}
}

func TestReverseLookupPKPrefixDelete(t *testing.T) {
	store := newMapStore()
	s, out, e := buildChatEngine(t, store)
	msgs := s.Tables["messages"]
	rooms := s.Tables["rooms"]
	store.putBase(t, e, rooms, nil, row.Row{"id": "go", "topic": "gophers"})
	store.putBase(t, e, msgs, nil, row.Row{"room": "go", "seq": int64(1), "text": "hi"})

	// Deleting the looked row removes the joined entries.
	store.putBase(t, e, rooms, row.Row{"id": "go", "topic": "gophers"}, nil)
	ns := viewNS(out, "messageTopics")
	if got := len(store.data[ns]); got != 0 {
		t.Fatalf("view entries after room delete = %d, want 0", got)
	}
}

// TestDrivingDeleteRetiresEntryOfAChangedLookedRow: bob's birthday
// changes before the upkeep of a deleted friendship runs. The entry the
// friendship built holds the old birthday in its key, so it is found by
// scanning the view under alice's prefix, not derived from bob's
// current row; alice's other entry stays. Through a Store that lists
// no keys, an entry whose looked row is unchanged still retires.
func TestDrivingDeleteRetiresEntryOfAChangedLookedRow(t *testing.T) {
	store := newMapStore()
	s, out, e := buildEngine(t, store)
	users, friendships := s.Tables["users"], s.Tables["friendships"]
	store.putBase(t, e, users, nil, row.Row{"id": "bob", "name": "Bob", "birthday": int64(10)})
	store.putBase(t, e, users, nil, row.Row{"id": "carol", "name": "Carol", "birthday": int64(15)})
	edge := row.Row{"f1": "alice", "f2": "bob"}
	store.putBase(t, e, friendships, nil, edge)
	store.putBase(t, e, friendships, nil, row.Row{"f1": "alice", "f2": "carol"})
	bdNS := viewNS(out, "friendsWithUpcomingBirthdays")
	if len(store.data[bdNS]) != 2 {
		t.Fatalf("birthday view has %d entries, want 2", len(store.data[bdNS]))
	}

	// bob's new row is stored; its upkeep has not run yet.
	bobKey, err := row.EncodeKey(row.Row{"id": "bob"}, users.PrimaryKey)
	if err != nil {
		t.Fatal(err)
	}
	store.data[planner.TableNamespace("users")][string(bobKey)] = row.Row{"id": "bob", "name": "Bob", "birthday": int64(20)}
	muts, err := e.Mutations("friendships", edge, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.apply(t, muts)
	if len(store.data[bdNS]) != 1 {
		t.Fatalf("birthday view has %d entries after the delete, want carol's only", len(store.data[bdNS]))
	}
	for _, v := range store.data[bdNS] {
		if v["id"] != "carol" {
			t.Fatalf("view holds %v, want carol's entry", v)
		}
	}

	// Without keys listed, an unchanged looked row still retires.
	rowsOnly := NewEngine(s, out.Indexes, struct{ Store }{store})
	store.putBase(t, rowsOnly, friendships, nil, edge)
	store.putBase(t, rowsOnly, friendships, edge, nil)
	if len(store.data[bdNS]) != 1 {
		t.Fatalf("birthday view has %d entries after a re-insert and delete, want carol's only", len(store.data[bdNS]))
	}
}

// TestMutationSetKeepsOnePerKey: below and past the length the set
// searches one by one, it keeps one mutation per namespace and key in
// first-seen order, a put winning over a delete and a later put over an
// earlier one.
func TestMutationSetKeepsOnePerKey(t *testing.T) {
	for _, n := range []int{5, 20} {
		var ms mutationSet
		for i := range n {
			key := []byte{byte(i)}
			if i%2 == 0 {
				ms.add(Mutation{Namespace: "a", Key: key})
			} else {
				ms.add(Mutation{Namespace: "a", Key: key, Value: []byte{0}})
			}
			ms.add(Mutation{Namespace: "b", Key: key, Value: []byte{0}})
		}
		for i := range n {
			key := []byte{byte(i)}
			ms.add(Mutation{Namespace: "a", Key: key})
			ms.add(Mutation{Namespace: "b", Key: key, Value: []byte{1}})
		}
		ms.add(Mutation{Namespace: "a", Key: []byte{0}, Value: []byte{2}})
		if len(ms.muts) != 2*n {
			t.Fatalf("n=%d: %d mutations, want %d", n, len(ms.muts), 2*n)
		}
		for i, m := range ms.muts {
			var want []byte
			switch {
			case m.Namespace == "b":
				want = []byte{1}
			case i == 0:
				want = []byte{2}
			case i/2%2 == 1:
				want = []byte{0}
			}
			ns := []string{"a", "b"}[i%2]
			if m.Namespace != ns || m.Key[0] != byte(i/2) || !bytes.Equal(m.Value, want) {
				t.Fatalf("n=%d: mutation %d = %+v, want %s/%d = %v", n, i, m, ns, i/2, want)
			}
		}
	}
}

// TestMutationSetResetKeepsWhatItHandedOut: a set reused for the next
// change forgets the last change's mutations and their index, and never
// writes over the keys and values it handed out, which the upkeep round
// holds until it commits them.
func TestMutationSetResetKeepsWhatItHandedOut(t *testing.T) {
	var ms mutationSet
	var kept []Mutation
	for change := range 300 {
		ms.reset()
		for i := range 20 {
			start := len(ms.buf)
			ms.buf = fmt.Appendf(ms.buf, "value-%d-%d", change, i)
			ms.add(Mutation{Namespace: "a", Key: []byte{byte(i)}, Value: ms.buf[start:len(ms.buf):len(ms.buf)]})
		}
		if len(ms.muts) != 20 {
			t.Fatalf("change %d holds %d mutations, want its own 20", change, len(ms.muts))
		}
		kept = append(kept, ms.muts...)
	}
	for i, m := range kept {
		if want := fmt.Sprintf("value-%d-%d", i/20, i%20); string(m.Value) != want {
			t.Fatalf("mutation %d's value reads %q after later changes, want %q", i, m.Value, want)
		}
	}
}
