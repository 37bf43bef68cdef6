package scads

// Tests of the write pipeline (write.go): what each kind of write costs
// in round trips, and the three faults the single pipeline closes.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/planner"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// noIndexDDL is a table nothing is derived from: findUser reads it by
// primary key.
const noIndexDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
`

// newWrappedCluster opens a Cluster over n in-memory nodes, every range
// replicated on all of them, with wrap(transport) between the
// coordinator and the nodes.
func newWrappedCluster(t *testing.T, n int, ddl string, wrap func(rpc.Transport) rpc.Transport) *Cluster {
	t.Helper()
	clk := clock.NewVirtual(t0)
	lt := rpc.NewLocalTransport()
	dir := cluster.NewDirectory(clk)
	for i := 1; i <= n; i++ {
		engine, err := storage.Open(storage.Options{NodeID: uint16(i), Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.Close() })
		id := fmt.Sprintf("node-%03d", i)
		lt.Register("local://"+id, cluster.NewNode(id, engine))
		dir.Join(id, "local://"+id)
		dir.MarkUp(id)
	}
	c, err := Open(Config{Clock: clk, Transport: wrap(lt), Directory: dir, ReplicationFactor: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.DefineSchema(ddl); err != nil {
		t.Fatal(err)
	}
	return c
}

// call identifies the round trips a countingTransport tallies.
type call struct{ method, namespace, addr string }

// countingTransport counts calls by method, namespace and node.
type countingTransport struct {
	next rpc.Transport
	mu   sync.Mutex
	n    map[call]int
}

func (ct *countingTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	ct.mu.Lock()
	ct.n[call{req.Method, req.Namespace, addr}]++
	ct.mu.Unlock()
	return ct.next.Call(addr, req)
}

func (ct *countingTransport) reset() {
	ct.mu.Lock()
	ct.n = make(map[call]int)
	ct.mu.Unlock()
}

// total sums the calls of one method to one namespace (any namespace
// when ns is empty) over all nodes.
func (ct *countingTransport) total(method, ns string) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	sum := 0
	for k, n := range ct.n {
		if k.method == method && (ns == "" || k.namespace == ns) {
			sum += n
		}
	}
	return sum
}

// TestWriteRoundTrips pins the round trips each kind of write makes:
// the old image is read exactly when something consumes it, index
// mutations share an apply per (namespace, primary), and the replication
// pump sends a destination's pending records in one apply, not one each.
func TestWriteRoundTrips(t *testing.T) {
	alice := Row{"id": "alice", "name": "Alice", "birthday": 42}
	cases := []struct {
		name, ddl, consistency string
		write                  func(c *Cluster) error
		gets, applies          int
	}{
		{name: "LWW insert, nothing derived", ddl: noIndexDDL,
			write: func(c *Cluster) error { return c.Insert("users", alice) }, gets: 0, applies: 1},
		{name: "serializable insert, nothing derived", ddl: noIndexDDL,
			consistency: `namespace users { write: serializable; }`,
			write:       func(c *Cluster) error { return c.Insert("users", alice) }, gets: 1, applies: 1},
		{name: "LWW insert, view derived", ddl: socialDDL,
			write: func(c *Cluster) error { return c.Insert("users", alice) }, gets: 1, applies: 1},
		{name: "delete of an absent row", ddl: noIndexDDL,
			write: func(c *Cluster) error {
				ver, err := c.deleteAs("users", Row{"id": "nobody"}, "")
				if ver != 0 {
					return fmt.Errorf("deleting an absent row reported version %d, want 0", ver)
				}
				return err
			}, gets: 1, applies: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := &countingTransport{n: make(map[call]int)}
			c := newWrappedCluster(t, 1, tc.ddl, func(next rpc.Transport) rpc.Transport {
				ct.next = next
				return ct
			})
			if tc.consistency != "" {
				if err := c.ApplyConsistency(tc.consistency); err != nil {
					t.Fatal(err)
				}
			}
			ct.reset()
			if err := tc.write(c); err != nil {
				t.Fatal(err)
			}
			ns := planner.TableNamespace("users")
			gets, applies := ct.total(rpc.MethodGet, ns), ct.total(rpc.MethodApply, ns)
			if gets != tc.gets || applies != tc.applies {
				t.Errorf("%d gets and %d applies to %s, want %d and %d", gets, applies, ns, tc.gets, tc.applies)
			}
			if other := ct.total(rpc.MethodGet, "") + ct.total(rpc.MethodApply, "") - gets - applies; other != 0 {
				t.Errorf("%d gets/applies outside %s at write time, want 0", other, ns)
			}
		})
	}

	t.Run("replica applies carry a batch", func(t *testing.T) {
		ct := &countingTransport{n: make(map[call]int)}
		c := newWrappedCluster(t, 2, noIndexDDL, func(next rpc.Transport) rpc.Transport {
			ct.next = next
			return ct
		})
		for i := 0; i < 32; i++ {
			if err := c.Insert("users", Row{"id": fmt.Sprintf("user%02d", i), "name": "U", "birthday": i}); err != nil {
				t.Fatal(err)
			}
		}
		if n := ct.total(rpc.MethodApply, ""); n != 32 {
			t.Fatalf("%d applies for 32 inserts before replication ran, want one each", n)
		}
		ct.reset()
		if n := c.Pump().Drain(4096); n != 32 {
			t.Fatalf("Drain attempted %d records, want 32", n)
		}
		if n := ct.total(rpc.MethodApply, ""); n > 2 {
			t.Errorf("%d applies carried 32 records to the secondary, want <= 2", n)
		}
		if st := c.Pump().Stats(); st.Delivered != 32 || st.Pending != 0 {
			t.Errorf("pump after the drain: %+v", st)
		}
	})

	t.Run("index mutations share an apply", func(t *testing.T) {
		ct := &countingTransport{n: make(map[call]int)}
		c := newWrappedCluster(t, 2, socialDDL, func(next rpc.Transport) rpc.Transport {
			ct.next = next
			return ct
		})
		if err := c.Insert("users", alice); err != nil {
			t.Fatal(err)
		}
		for _, f1 := range []string{"bob", "carol", "dave"} {
			if err := c.Insert("friendships", Row{"f1": f1, "f2": "alice"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		// A new birthday rewrites alice's entry under each of her three
		// friends: three deletes and three puts, one index namespace.
		if err := c.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 43}); err != nil {
			t.Fatal(err)
		}
		ct.reset()
		if n, err := c.DrainMaintenance(10); n != 1 || err != nil {
			t.Fatalf("DrainMaintenance = %d, %v, want 1 task", n, err)
		}
		// The base change and its six index mutations then replicate in
		// one apply per (namespace, secondary) too.
		atMostOneApplyEach := func(stage string) {
			ct.mu.Lock()
			defer ct.mu.Unlock()
			for k, n := range ct.n {
				if k.method == rpc.MethodApply && n > 1 {
					t.Errorf("%s: %d applies to %s on %s for one base change, want <= 1", stage, n, k.namespace, k.addr)
				}
			}
		}
		atMostOneApplyEach("maintenance")
		ct.reset()
		if n := c.Pump().Drain(4096); n != 7 {
			t.Fatalf("Drain attempted %d records, want the row and its 6 index mutations", n)
		}
		atMostOneApplyEach("replication")
	})
}

// gateTransport parks the first apply to one namespace until a second
// get of that namespace arrives (or patience runs out), which lines two
// concurrent writers up so both read before either writes — if nothing
// stops them.
type gateTransport struct {
	next      rpc.Transport
	namespace string

	mu     sync.Mutex
	armed  bool
	gets   int
	parked bool
	second chan struct{} // closed at the second get
}

func (g *gateTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	g.mu.Lock()
	park := false
	if g.armed && req.Namespace == g.namespace {
		switch req.Method {
		case rpc.MethodGet:
			if g.gets++; g.gets == 2 {
				close(g.second)
			}
		case rpc.MethodApply:
			park = !g.parked
			g.parked = true
		}
	}
	g.mu.Unlock()
	if park {
		select {
		case <-g.second:
		case <-time.After(200 * time.Millisecond):
		}
	}
	return g.next.Call(addr, req)
}

// TestConcurrentInsertsRetireLoserIndexEntry: two concurrent inserts of
// one key into a table a view is derived from must not both hand index
// maintenance the same old image — the loser's view entry would never
// be retired.
func TestConcurrentInsertsRetireLoserIndexEntry(t *testing.T) {
	gate := &gateTransport{namespace: planner.TableNamespace("users"), second: make(chan struct{})}
	c := newWrappedCluster(t, 1, socialDDL, func(next rpc.Transport) rpc.Transport {
		gate.next = next
		return gate
	})
	if err := c.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	gate.mu.Lock()
	gate.armed = true
	gate.mu.Unlock()

	var wg sync.WaitGroup
	for _, birthday := range []int{20, 30} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": birthday}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	bob, found, err := c.Get("users", Row{"id": "bob"})
	if err != nil || !found {
		t.Fatalf("get bob = %v, %v", found, err)
	}
	rows, err := c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["birthday"] != bob["birthday"] {
		t.Fatalf("view holds %v, want exactly the stored row (birthday %v)", rows, bob["birthday"])
	}
}

// TestFailedMaintenanceIsRequeued: a maintenance task whose index apply
// fails goes back on the queue, and completes once the index range's
// primary is back.
func TestFailedMaintenanceIsRequeued(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	ids := lc.NodeIDs()
	// Tables on the first node, index namespaces on the second.
	for _, ns := range lc.Router().Namespaces() {
		m, _ := lc.Router().Map(ns)
		node := ids[1]
		if ns == planner.TableNamespace("users") || ns == planner.TableNamespace("friendships") {
			node = ids[0]
		}
		if err := m.SetReplicas([]byte{}, []string{node}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	lc.CrashNode(ids[1])
	if err := lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.DrainMaintenance(10); err == nil {
		t.Fatal("DrainMaintenance succeeded with the index primary down")
	}
	if pending, _ := lc.MaintenanceBacklog(0); pending != 1 {
		t.Fatalf("%d tasks pending after the failed drain, want the failed task back (1)", pending)
	}

	lc.RecoverNode(ids[1])
	if n, err := lc.DrainMaintenance(10); n != 1 || err != nil {
		t.Fatalf("DrainMaintenance after recovery = %d, %v, want 1 task", n, err)
	}
	// (The friends query reads the friendships table itself; the join
	// view is the query that depends on maintenance.)
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("view after recovery = %v, %v, want bob", rows, err)
	}
}

// TestIndexReplicasFollowTableBound: index updates replicate under the
// staleness bound of the table they derive from, not the default.
func TestIndexReplicasFollowTableBound(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2) // default bound 30s
	if err := lc.ApplyConsistency(`namespace friendships { staleness: 1s; }`); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	lc.Pump().Drain(4096) // the base row's own replication
	if n, err := lc.DrainMaintenance(10); n != 1 || err != nil {
		t.Fatalf("DrainMaintenance = %d, %v, want 1 task", n, err)
	}
	// The reverse-index entry (the view entry needs bob's users row,
	// which does not exist).
	if got := lc.Pump().AtRisk(2 * time.Second); got != 1 {
		t.Fatalf("%d index updates due within 2s, want 1 (the table's bound is 1s)", got)
	}
}
