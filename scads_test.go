package scads

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/consistency"
	"scads/internal/planner"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

// socialDDL is the paper's §3.2 running example.
const socialDDL = `
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

func newSocialCluster(t testing.TB, nodes, rf int) (*LocalCluster, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(nodes, Config{
		Clock:             vc,
		ReplicationFactor: rf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	return lc, vc
}

func seedUsers(t testing.TB, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := c.Insert("users", Row{
			"id":       fmt.Sprintf("user%04d", i),
			"name":     fmt.Sprintf("User %d", i),
			"birthday": i%365 + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertGetDelete(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 2)
	if err := lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 42}); err != nil {
		t.Fatal(err)
	}
	// Reads rotate across replicas and are eventually consistent;
	// drain replication so both replicas hold the write (sessions give
	// read-your-writes without draining — see TestReadYourWritesSession).
	lc.FlushAll()
	r, found, err := lc.Get("users", Row{"id": "alice"})
	if err != nil || !found {
		t.Fatalf("Get = %v %v", found, err)
	}
	if r["name"] != "Alice" || r["birthday"] != int64(42) {
		t.Fatalf("row = %v", r)
	}
	if err := lc.Delete("users", Row{"id": "alice"}); err != nil {
		t.Fatal(err)
	}
	lc.FlushAll()
	if _, found, _ := lc.Get("users", Row{"id": "alice"}); found {
		t.Fatal("deleted row still visible")
	}
}

func TestWriteValidation(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	cases := []struct {
		name string
		row  Row
	}{
		{"missing pk", Row{"name": "x"}},
		{"unknown column", Row{"id": "a", "nope": 1}},
		{"wrong type", Row{"id": "a", "birthday": "tomorrow"}},
	}
	for _, c := range cases {
		if err := lc.Insert("users", c.row); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := lc.Insert("ghosts", Row{"id": "a"}); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table: %v", err)
	}
}

func TestSchemaRejectionIsUpfront(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(1, Config{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	// The Twitter shape must be rejected at definition time.
	err = lc.DefineSchema(`
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY follows ( follower string, followee string, PRIMARY KEY (follower, followee) )
QUERY followersOf
SELECT u.* FROM follows f JOIN users u ON f.follower = u.id
WHERE f.followee = ?user LIMIT 100
`)
	if err == nil || !strings.Contains(err.Error(), "CARDINALITY") {
		t.Fatalf("Twitter schema accepted: %v", err)
	}
}

func TestPKLookupQuery(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 1)
	seedUsers(t, lc.Cluster, 20)
	rows, err := lc.Query("findUser", map[string]any{"user": "user0007"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["name"] != "User 7" {
		t.Fatalf("rows = %v", rows)
	}
	// Missing user: empty result.
	rows, err = lc.Query("findUser", map[string]any{"user": "ghost"})
	if err != nil || len(rows) != 0 {
		t.Fatalf("ghost = %v %v", rows, err)
	}
	// Missing parameter: error.
	if _, err := lc.Query("findUser", nil); err == nil {
		t.Fatal("missing param accepted")
	}
	// Unknown query: error.
	if _, err := lc.Query("nope", nil); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("unknown query: %v", err)
	}
}

func TestTableScanQuery(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 1)
	for i := 0; i < 10; i++ {
		err := lc.Insert("friendships", Row{"f1": "alice", "f2": fmt.Sprintf("friend%02d", i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	lc.Insert("friendships", Row{"f1": "bob", "f2": "carol"})
	rows, err := lc.Query("friends", map[string]any{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("friends = %d rows", len(rows))
	}
	for i, r := range rows {
		if r["f1"] != "alice" {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestJoinViewQueryEndToEnd(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 1)
	// Bob and Carol are Alice's friends with birthdays 200 and 100.
	lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 10})
	lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 200})
	lc.Insert("users", Row{"id": "carol", "name": "Carol", "birthday": 100})
	lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"})
	lc.Insert("friendships", Row{"f1": "alice", "f2": "carol"})
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Ordered by birthday: Carol (100) before Bob (200).
	if rows[0]["name"] != "Carol" || rows[1]["name"] != "Bob" {
		t.Fatalf("order = %v", rows)
	}
	// Values are the users' columns only (p.* projection).
	if _, ok := rows[0]["f1"]; ok {
		t.Fatal("driving columns leaked")
	}

	// Birthday edit moves Bob ahead of Carol.
	lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 50})
	lc.FlushAll()
	rows, _ = lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if rows[0]["name"] != "Bob" {
		t.Fatalf("after birthday edit: %v", rows)
	}

	// Unfriending removes Carol from the view.
	lc.Delete("friendships", Row{"f1": "alice", "f2": "carol"})
	lc.FlushAll()
	rows, _ = lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if len(rows) != 1 || rows[0]["name"] != "Bob" {
		t.Fatalf("after unfriend: %v", rows)
	}
}

func TestMaintenanceIsAsynchronous(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 5})
	lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"})

	// Before draining, the view may be empty (updates are async).
	pending, _ := lc.MaintenanceBacklog(time.Hour)
	if pending == 0 {
		t.Fatal("no pending maintenance after writes")
	}
	lc.FlushAll()
	pending, _ = lc.MaintenanceBacklog(time.Hour)
	if pending != 0 {
		t.Fatalf("backlog after flush = %d", pending)
	}
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("view rows = %v %v", rows, err)
	}
}

func TestReplicationPropagatesAsync(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2)
	lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 1})

	// The write is on the primary; the secondary catches up on drain.
	st := lc.Stats()
	if st.Replication.Enqueued == 0 {
		t.Fatal("no replication enqueued with RF=2")
	}
	lc.FlushAll()
	st = lc.Stats()
	if st.Replication.Pending != 0 || st.Replication.Delivered == 0 {
		t.Fatalf("replication stats = %+v", st.Replication)
	}

	// Both replicas can now serve the read (kill one node at a time).
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	replicas := m.Ranges()[0].Replicas
	if len(replicas) != 2 {
		t.Fatalf("replicas = %v", replicas)
	}
	for _, down := range replicas {
		lc.CrashNode(down)
		r, found, err := lc.Get("users", Row{"id": "alice"})
		if err != nil || !found || r["name"] != "Alice" {
			t.Fatalf("read with %s down: %v %v %v", down, r, found, err)
		}
		lc.RecoverNode(down)
	}
}

func TestSerializableCounter(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	if err := lc.ApplyConsistency(`
namespace users {
  write: serializable;
}
`); err != nil {
		t.Fatal(err)
	}
	// Concurrent read-modify-writes must not lose updates.
	const workers, iters = 8, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var err error
			for i := 0; i < iters; i++ {
				err = lc.UpdateFunc("users", Row{"id": "counter"}, func(cur Row) (Row, error) {
					n := int64(0)
					if cur != nil {
						n = cur["birthday"].(int64)
					}
					return Row{"id": "counter", "birthday": n + 1}, nil
				})
				if err != nil {
					break
				}
			}
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	r, found, err := lc.Get("users", Row{"id": "counter"})
	if err != nil || !found {
		t.Fatal(err)
	}
	if r["birthday"] != int64(workers*iters) {
		t.Fatalf("counter = %v, want %d (lost updates)", r["birthday"], workers*iters)
	}
}

func TestMergeWriteMode(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	if err := lc.ApplyConsistency(`
namespace users {
  write: merge(union);
}
`); err != nil {
		t.Fatal(err)
	}
	// Two writers add different values to the same "name" field;
	// union-merge keeps both.
	lc.Insert("users", Row{"id": "wall", "name": "post-a", "birthday": 1})
	lc.Insert("users", Row{"id": "wall", "name": "post-b", "birthday": 1})
	r, _, err := lc.Get("users", Row{"id": "wall"})
	if err != nil {
		t.Fatal(err)
	}
	if r["name"] != "post-a\npost-b" {
		t.Fatalf("merged = %q", r["name"])
	}
}

func TestMergeFunctionMustBeRegistered(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	err := lc.ApplyConsistency(`namespace users { write: merge(bespoke); }`)
	if err == nil {
		t.Fatal("unregistered merge accepted")
	}
	lc.RegisterMerge("bespoke", func(a, b []byte) []byte { return a })
	if err := lc.ApplyConsistency(`namespace users { write: merge(bespoke); }`); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencySpecValidation(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	if err := lc.ApplyConsistency(`namespace ghosts { staleness: 5s; }`); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("spec for unknown table: %v", err)
	}
	vc := clock.NewVirtual(t0)
	bare, _ := NewLocalCluster(1, Config{Clock: vc})
	defer bare.Close()
	if err := bare.ApplyConsistency(`namespace users { staleness: 5s; }`); !errors.Is(err, ErrNoSchema) {
		t.Fatalf("spec before schema: %v", err)
	}
}

func TestReadYourWritesSession(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2)
	if err := lc.ApplyConsistency(`
namespace users {
  session: read-your-writes;
  staleness: 10m;
}
`); err != nil {
		t.Fatal(err)
	}
	sess := lc.NewSession("users")
	if sess.Level() != consistency.ReadYourWrites {
		t.Fatalf("session level = %v", sess.Level())
	}

	// Write lands on the primary only (replication pending).
	if err := lc.InsertSession("users", Row{"id": "me", "name": "Me", "birthday": 1}, sess); err != nil {
		t.Fatal(err)
	}
	// Many session reads: every one must see the write even though
	// the secondary replica hasn't received it yet.
	for i := 0; i < 10; i++ {
		r, found, err := lc.GetSession("users", Row{"id": "me"}, sess)
		if err != nil || !found || r["name"] != "Me" {
			t.Fatalf("read %d missed own write: %v %v %v", i, r, found, err)
		}
	}
	// A sessionless read round-robins and can miss (not asserted —
	// demonstrating the difference is the E4d experiment's job).
}

func TestSessionDeleteVisibility(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2)
	lc.ApplyConsistency(`namespace users { session: read-your-writes; }`)
	sess := lc.NewSession("users")
	lc.InsertSession("users", Row{"id": "x", "name": "X", "birthday": 1}, sess)
	lc.FlushAll()
	if err := lc.DeleteSession("users", Row{"id": "x"}, sess); err != nil {
		t.Fatal(err)
	}
	// Session must observe its own delete (miss), not resurrect.
	_, found, err := lc.GetSession("users", Row{"id": "x"}, sess)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("session saw pre-delete value")
	}
}

func TestStalenessBoundArbitration(t *testing.T) {
	// The §3.3.1 contention example: the primary is down and the only
	// surviving replica exceeds the staleness bound. The declared
	// priority order decides whether the read fails or serves stale.
	run := func(t *testing.T, priority string) error {
		vc := clock.NewVirtual(t0)
		lc, err := NewLocalCluster(2, Config{Clock: vc, ReplicationFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		if err := lc.DefineSchema(socialDDL); err != nil {
			t.Fatal(err)
		}
		if err := lc.ApplyConsistency(fmt.Sprintf(`
namespace users {
  staleness: 5s;
  priority: %s;
}
`, priority)); err != nil {
			t.Fatal(err)
		}
		lc.Insert("users", Row{"id": "a", "name": "A", "birthday": 1})
		// Don't drain replication; advance past the staleness bound so
		// the secondary is provably stale.
		vc.Advance(10 * time.Second)
		m, _ := lc.Router().Map(planner.TableNamespace("users"))
		lc.CrashNode(m.Ranges()[0].Replicas[0])
		_, _, err = lc.Get("users", Row{"id": "a"})
		return err
	}

	t.Run("read-consistency first fails the read", func(t *testing.T) {
		if err := run(t, "read-consistency > availability"); !errors.Is(err, ErrStaleReplicas) {
			t.Fatalf("err = %v, want ErrStaleReplicas", err)
		}
	})
	t.Run("availability first serves stale", func(t *testing.T) {
		if err := run(t, "availability > read-consistency"); err != nil {
			t.Fatalf("err = %v, want stale read served", err)
		}
	})
}

// TestQueryHonoursStalenessBound: a query is read under the declared
// bound like a Get. With the secondary's pending replication aged past
// it, a point-get query, a table scan and an index scan (the index
// inherits its driving table's bound) all go to the primary; with no
// bound declared they rotate over both replicas as before.
func TestQueryHonoursStalenessBound(t *testing.T) {
	for _, declared := range []bool{true, false} {
		t.Run(fmt.Sprintf("bound declared=%v", declared), func(t *testing.T) {
			ct := &countingTransport{n: make(map[call]int)}
			c := newWrappedCluster(t, 2, socialDDL, func(next rpc.Transport) rpc.Transport {
				ct.next = next
				return ct
			})
			if declared {
				if err := c.ApplyConsistency(`
namespace users { staleness: 5s; }
namespace friendships { staleness: 5s; }`); err != nil {
					t.Fatal(err)
				}
			}
			reads := []struct {
				query, method, ns string
			}{
				{"findUser", rpc.MethodGet, planner.TableNamespace("users")},
				{"friends", rpc.MethodScan, planner.TableNamespace("friendships")},
				{"friendsWithUpcomingBirthdays", rpc.MethodScan, c.Plan("friendsWithUpcomingBirthdays").Namespace},
			}
			// One undelivered update per namespace, acked by the primary
			// and pending to the secondary for ten seconds.
			for _, rd := range reads {
				m, _ := c.Router().Map(rd.ns)
				c.Pump().Enqueue(rd.ns, record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1},
					m.Lookup([]byte("k")).Replicas, time.Hour)
			}
			c.Clock().(*clock.Virtual).Advance(10 * time.Second)

			for _, rd := range reads {
				ct.reset()
				for i := 0; i < 4; i++ {
					if _, err := c.Query(rd.query, map[string]any{"user": "a"}); err != nil {
						t.Fatal(err)
					}
				}
				m, _ := c.Router().Map(rd.ns)
				replicas := m.Ranges()[0].Replicas
				primary := ct.n[call{rd.method, rd.ns, "local://" + replicas[0]}]
				secondary := ct.n[call{rd.method, rd.ns, "local://" + replicas[1]}]
				if want := map[bool][2]int{true: {4, 0}, false: {2, 2}}[declared]; [2]int{primary, secondary} != want {
					t.Errorf("%s: %d reads at the primary, %d at the stale secondary, want %v", rd.query, primary, secondary, want)
				}
			}
			if st := c.Contention(); st.Total != 0 {
				t.Errorf("contention noted with a fresh replica answering: %+v", st)
			}
		})
	}
}

func TestMaintenanceTableExposed(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	tbl := lc.FormatMaintenanceTable()
	for _, want := range []string{"view_friendsWithUpcomingBirthdays", "friendships", "birthday"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("maintenance table missing %q:\n%s", want, tbl)
		}
	}
	if lc.Plan("friends") == nil || lc.Analysis("friends") == nil {
		t.Fatal("plan/analysis accessors empty")
	}
}

func TestSplitTableAndCrossPartitionQuery(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 1)
	if err := lc.SplitTable("users", "user0005", "user0010"); err != nil {
		t.Fatal(err)
	}
	// Spread the three ranges across the three nodes.
	ids := lc.NodeIDs()
	if err := lc.AssignRange("users", "user0000", []string{ids[0]}); err != nil {
		t.Fatal(err)
	}
	lc.AssignRange("users", "user0007", []string{ids[1]})
	lc.AssignRange("users", "user0012", []string{ids[2]})

	seedUsers(t, lc.Cluster, 15)
	for i := 0; i < 15; i++ {
		id := fmt.Sprintf("user%04d", i)
		r, found, err := lc.Get("users", Row{"id": id})
		if err != nil || !found || r["id"] != id {
			t.Fatalf("Get(%s) = %v %v %v", id, r, found, err)
		}
	}
}

func TestMoveRangeMigratesData(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 30)
	lc.FlushAll()

	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	oldPrimary := m.Ranges()[0].Replicas[0]
	var target string
	for _, id := range lc.NodeIDs() {
		if id != oldPrimary {
			target = id
		}
	}
	if err := lc.MoveRange(ns, []byte{0x01}, []string{target}); err != nil {
		t.Fatal(err)
	}
	// All data readable from the new owner; old owner no longer serves.
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after move: %v %v", id, found, err)
		}
	}
	if got := m.Ranges()[0].Replicas[0]; got != target {
		t.Fatalf("map primary = %s, want %s", got, target)
	}
	// The old node dropped the range.
	node, _ := lc.Node(oldPrimary)
	nsEngine, err := node.Engine().Namespace(ns)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := nsEngine.Get([]byte{0x01}); ok {
		t.Fatalf("old primary still serves %q", v)
	}
}

func TestSLAMonitorCountsOperations(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	seedUsers(t, lc.Cluster, 5)
	for i := 0; i < 5; i++ {
		lc.Get("users", Row{"id": "user0001"})
	}
	s := lc.Stats()
	if s.SLA.TotalRequests < 10 {
		t.Fatalf("SLA requests = %d", s.SLA.TotalRequests)
	}
}

func TestClusterRequiresTransportAndDirectory(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with empty config succeeded")
	}
	if _, err := NewLocalCluster(0, Config{}); err == nil {
		t.Fatal("zero-node local cluster accepted")
	}
}

func TestDefineSchemaRequiresNodes(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(1, Config{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	lc.CrashNode(lc.NodeIDs()[0])
	if err := lc.DefineSchema(socialDDL); err == nil {
		t.Fatal("schema defined with no serving nodes")
	}
}

func TestQueriesBeforeSchema(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, _ := NewLocalCluster(1, Config{Clock: vc})
	defer lc.Close()
	if _, err := lc.Query("findUser", nil); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("query before schema: %v", err)
	}
	if _, err := lc.DrainMaintenance(10); err != nil {
		t.Fatalf("drain before schema: %v", err)
	}
	if err := lc.Insert("users", Row{"id": "x"}); !errors.Is(err, ErrNoSchema) {
		t.Fatalf("insert before schema: %v", err)
	}
}

func TestDescOrderedQueryEndToEnd(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(2, Config{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(`
ENTITY messages (
    channel string,
    ts int,
    author string,
    PRIMARY KEY (channel, ts),
    CARDINALITY channel 10000
)
QUERY recent
SELECT * FROM messages WHERE channel = ?ch AND ts > ?since ORDER BY ts DESC LIMIT 5
`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		err := lc.Insert("messages", Row{"channel": "general", "ts": i, "author": fmt.Sprintf("a%d", i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	lc.Insert("messages", Row{"channel": "other", "ts": 99, "author": "x"})
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	rows, err := lc.Query("recent", map[string]any{"ch": "general", "since": 10})
	if err != nil {
		t.Fatal(err)
	}
	// Strictly greater than 10, newest first, limit 5: 20..16.
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, want := range []int64{20, 19, 18, 17, 16} {
		if rows[i]["ts"] != want {
			t.Fatalf("row %d ts = %v, want %d (got order %v)", i, rows[i]["ts"], want, rows)
		}
	}
	// Channel isolation.
	for _, r := range rows {
		if r["channel"] != "general" {
			t.Fatalf("leaked row from other channel: %v", r)
		}
	}
}

func TestMonotonicReadsAcrossReplicas(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2)
	if err := lc.ApplyConsistency(`namespace users { session: monotonic-reads; }`); err != nil {
		t.Fatal(err)
	}
	// Version 1 reaches both replicas; version 2 only the primary.
	lc.Insert("users", Row{"id": "k", "name": "v1", "birthday": 1})
	lc.FlushAll()
	lc.Insert("users", Row{"id": "k", "name": "v2", "birthday": 2})

	sess := lc.NewSession("users")
	sawV2 := false
	for i := 0; i < 40; i++ {
		r, found, err := lc.GetSession("users", Row{"id": "k"}, sess)
		if err != nil || !found {
			t.Fatalf("read %d: %v %v", i, found, err)
		}
		name := r["name"].(string)
		if sawV2 && name != "v2" {
			t.Fatalf("monotonic reads violated: saw v2 then %q", name)
		}
		if name == "v2" {
			sawV2 = true
		}
	}
	if !sawV2 {
		t.Fatal("rotation never reached the primary (test setup issue)")
	}
}

func TestUpdateFuncDeleteAndAbsent(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	// fn on an absent row sees nil.
	called := false
	err := lc.UpdateFunc("users", Row{"id": "x"}, func(cur Row) (Row, error) {
		called = true
		if cur != nil {
			t.Fatalf("cur = %v, want nil", cur)
		}
		return Row{"id": "x", "name": "new", "birthday": 1}, nil
	})
	if err != nil || !called {
		t.Fatal(err)
	}
	lc.FlushAll()
	// fn returning nil deletes.
	if err := lc.UpdateFunc("users", Row{"id": "x"}, func(cur Row) (Row, error) {
		if cur == nil {
			t.Fatal("row missing in RMW")
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	lc.FlushAll()
	if _, found, _ := lc.Get("users", Row{"id": "x"}); found {
		t.Fatal("UpdateFunc(nil) did not delete")
	}
	// fn returning an error aborts without writing.
	wantErr := fmt.Errorf("abort")
	if err := lc.UpdateFunc("users", Row{"id": "y"}, func(cur Row) (Row, error) {
		return nil, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// Delete of an absent row is a no-op, not an error.
	if err := lc.Delete("users", Row{"id": "ghost"}); err != nil {
		t.Fatal(err)
	}
}

func TestStartBackgroundDrainsWithoutManualFlush(t *testing.T) {
	// Real clock: background workers drain replication + maintenance
	// on their own.
	lc, err := NewLocalCluster(2, Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	lc.StartBackground(2)
	lc.StartBackground(2) // idempotent

	lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 5})
	lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
		if err != nil {
			t.Fatal(err)
		}
		st := lc.Stats()
		if len(rows) == 1 && st.Maintenance == 0 && st.Replication.Pending == 0 {
			lc.StopBackground()
			lc.StopBackground() // idempotent
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background workers never drained the queues")
}

// TestStopBackgroundStopsEveryWorker checks that StopBackground stops
// everything StartBackground started, the replication workers
// included: the goroutine count returns to what it was, twice over,
// and a write made after the stop is not replicated.
func TestStopBackgroundStopsEveryWorker(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for range 2 {
		lc.StartBackground(2)
		lc.StopBackground()
		// A joined goroutine may still be on its way out. Fewer than
		// before is no fault: another test's goroutine may have ended.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("goroutines = %d after StopBackground, want %d as before StartBackground", n, before)
		}
	}
	delivered := lc.Stats().Replication.Delivered
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 5}); err != nil {
		t.Fatal(err)
	}
	// Give a worker left running time to deliver the write.
	time.Sleep(50 * time.Millisecond)
	if got := lc.Stats().Replication.Delivered; got != delivered {
		t.Fatalf("Replication.Delivered went %d -> %d after StopBackground", delivered, got)
	}
}

// Without StartBackground a local cluster runs no goroutine of its
// own: booting it, a write, a query and Close leave the count where it
// was. On disk, Close joins each node engine's flusher and compactor.
func TestLocalClusterWithoutBackgroundStartsNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  func(t *testing.T) string
	}{
		{"in memory", func(*testing.T) string { return "" }},
		{"disk backed", func(t *testing.T) string { return t.TempDir() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			lc, err := NewLocalCluster(2, Config{ReplicationFactor: 2, NodeStorage: storage.Options{Dir: tc.dir(t)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := lc.DefineSchema(socialDDL); err != nil {
				t.Fatal(err)
			}
			if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 5}); err != nil {
				t.Fatal(err)
			}
			if err := lc.FlushAll(); err != nil { // replicate without the driver
				t.Fatal(err)
			}
			if rows, err := lc.Query("findUser", map[string]any{"user": "bob"}); err != nil || len(rows) != 1 {
				t.Fatalf("findUser: %v rows, err %v", rows, err)
			}
			if err := lc.Close(); err != nil {
				t.Fatal(err)
			}
			// A goroutine a call started may still be on its way out. Fewer
			// than before is no fault: another test's goroutine may have ended.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines %d -> %d after a local cluster's Close", before, n)
			}
		})
	}
}

func TestRowMergeFunction(t *testing.T) {
	// Row-level merges (§3.3.1: "a function that will merge
	// conflicting writes") see both whole rows; here the smaller
	// birthday and the longer name win regardless of write order.
	lc, _ := newSocialCluster(t, 1, 1)
	lc.RegisterRowMerge("rowwise", func(cur, incoming Row) Row {
		merged := incoming.Clone()
		if ob, ok := cur["birthday"].(int64); ok {
			if nb, ok := merged["birthday"].(int64); !ok || ob < nb {
				merged["birthday"] = ob
			}
		}
		if on, ok := cur["name"].(string); ok {
			if nn, ok := merged["name"].(string); !ok || len(on) > len(nn) {
				merged["name"] = on
			}
		}
		return merged
	})
	if err := lc.ApplyConsistency(`namespace users { write: merge(rowwise); }`); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("users", Row{"id": "m", "name": "Alexandra", "birthday": 100}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("users", Row{"id": "m", "name": "Alex", "birthday": 42}); err != nil {
		t.Fatal(err)
	}
	r, _, err := lc.Get("users", Row{"id": "m"})
	if err != nil {
		t.Fatal(err)
	}
	if r["name"] != "Alexandra" || r["birthday"] != int64(42) {
		t.Fatalf("merged row = %v, want longest name + smallest birthday", r)
	}
}

func TestRowMergeNilKeepsIncoming(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	lc.RegisterRowMerge("veto", func(cur, incoming Row) Row { return nil })
	if err := lc.ApplyConsistency(`namespace users { write: merge(veto); }`); err != nil {
		t.Fatal(err)
	}
	lc.Insert("users", Row{"id": "n", "name": "old", "birthday": 1})
	lc.Insert("users", Row{"id": "n", "name": "new", "birthday": 2})
	r, _, err := lc.Get("users", Row{"id": "n"})
	if err != nil {
		t.Fatal(err)
	}
	if r["name"] != "new" {
		t.Fatalf("nil merge result should keep incoming row, got %v", r)
	}
}

func TestRowMergeSatisfiesSpecValidation(t *testing.T) {
	// A spec naming a row-level merge validates without a byte-level
	// registration of the same name.
	lc, _ := newSocialCluster(t, 1, 1)
	lc.RegisterRowMerge("rowonly", func(cur, incoming Row) Row { return incoming })
	if err := lc.ApplyConsistency(`namespace users { write: merge(rowonly); }`); err != nil {
		t.Fatalf("row-only merge rejected: %v", err)
	}
}

func TestRowMergeTakesPrecedenceOverByteMerge(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	lc.RegisterMerge("both", func(a, b []byte) []byte { return []byte("byte-level") })
	lc.RegisterRowMerge("both", func(cur, incoming Row) Row {
		merged := incoming.Clone()
		merged["name"] = "row-level"
		return merged
	})
	if err := lc.ApplyConsistency(`namespace users { write: merge(both); }`); err != nil {
		t.Fatal(err)
	}
	lc.Insert("users", Row{"id": "p", "name": "a", "birthday": 1})
	lc.Insert("users", Row{"id": "p", "name": "b", "birthday": 1})
	r, _, err := lc.Get("users", Row{"id": "p"})
	if err != nil {
		t.Fatal(err)
	}
	if r["name"] != "row-level" {
		t.Fatalf("name = %v, want row-level merge to win", r["name"])
	}
}
