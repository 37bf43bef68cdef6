package scads

// Tests of the write pipeline (write.go): what each kind of write costs
// in round trips, and the three faults the single pipeline closes.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/planner"
	"scads/internal/row"
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
// the old row is read only when the new row is computed from it, the
// write is a swap exactly when something consumes what it displaced, a
// batch is one write per primary, index mutations share an apply per
// (namespace, primary), and the replication pump sends a destination's
// pending records in one apply, not one each.
func TestWriteRoundTrips(t *testing.T) {
	alice := Row{"id": "alice", "name": "Alice", "birthday": 42}
	insertAlice := func(c *Cluster) error { return c.Insert("users", alice) }
	cases := []struct {
		name, ddl, consistency string
		setup, write           func(c *Cluster) error
		gets, applies, swaps   int
	}{
		{name: "LWW insert, nothing derived", ddl: noIndexDDL,
			write: insertAlice, gets: 0, applies: 1, swaps: 0},
		{name: "serializable insert, nothing derived", ddl: noIndexDDL,
			consistency: `namespace users { write: serializable; }`,
			write:       insertAlice, gets: 1, applies: 0, swaps: 1},
		{name: "merge insert of a new row", ddl: noIndexDDL,
			consistency: `namespace users { write: merge(union); }`,
			write:       insertAlice, gets: 1, applies: 0, swaps: 1},
		{name: "LWW insert, view derived", ddl: socialDDL,
			write: insertAlice, gets: 0, applies: 0, swaps: 1},
		{name: "delete of an absent row", ddl: noIndexDDL,
			write: func(c *Cluster) error {
				ver, err := c.deleteAs("users", Row{"id": "nobody"}, "")
				if ver != 0 {
					return fmt.Errorf("deleting an absent row reported version %d, want 0", ver)
				}
				// A snapshot page lists tombstones too.
				snap, serr := c.cfg.Transport.Call("local://node-001", rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: planner.TableNamespace("users")})
				if serr == nil && len(snap.Records) != 0 {
					return fmt.Errorf("the node holds %v after deleting an absent row, want nothing", snap.Records)
				}
				return errors.Join(err, serr)
			}, gets: 0, applies: 0, swaps: 1},
		{name: "delete, nothing derived", ddl: noIndexDDL, setup: insertAlice,
			write: func(c *Cluster) error {
				ver, err := c.deleteAs("users", Row{"id": "alice"}, "")
				if ver == 0 && err == nil {
					return fmt.Errorf("deleting a stored row reported version 0")
				}
				return err
			}, gets: 0, applies: 0, swaps: 1},
		{name: "UpdateFunc of a new row", ddl: noIndexDDL,
			write: func(c *Cluster) error {
				return c.UpdateFunc("users", Row{"id": "alice"}, func(cur Row) (Row, error) {
					if cur != nil {
						return nil, fmt.Errorf("UpdateFunc saw %v for a new row", cur)
					}
					return alice, nil
				})
			}, gets: 1, applies: 0, swaps: 1},
		{name: "UpdateFunc onto a deleted row", ddl: noIndexDDL,
			setup: func(c *Cluster) error {
				return errors.Join(insertAlice(c), c.Delete("users", Row{"id": "alice"}))
			},
			write: func(c *Cluster) error {
				return c.UpdateFunc("users", Row{"id": "alice"}, func(cur Row) (Row, error) {
					if cur != nil {
						return nil, fmt.Errorf("UpdateFunc saw %v for a deleted row", cur)
					}
					return alice, nil
				})
			}, gets: 1, applies: 0, swaps: 1},
		{name: "maintained InsertBatch on one primary", ddl: socialDDL,
			write: func(c *Cluster) error {
				return c.InsertBatch("users", []Row{alice, {"id": "bob", "birthday": 7}, {"id": "alice", "birthday": 43}})
			}, gets: 0, applies: 0, swaps: 1},
		{name: "unmaintained InsertBatch", ddl: noIndexDDL,
			write: func(c *Cluster) error {
				return c.InsertBatch("users", []Row{alice, {"id": "bob", "birthday": 7}})
			}, gets: 0, applies: 1, swaps: 0},
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
			if tc.setup != nil {
				if err := tc.setup(c); err != nil {
					t.Fatal(err)
				}
			}
			ct.reset()
			if err := tc.write(c); err != nil {
				t.Fatal(err)
			}
			ns := planner.TableNamespace("users")
			gets, applies, swaps := ct.total(rpc.MethodGet, ns), ct.total(rpc.MethodApply, ns), ct.total(rpc.MethodSwap, ns)
			if gets != tc.gets || applies != tc.applies || swaps != tc.swaps {
				t.Errorf("%d gets, %d applies and %d swaps to %s, want %d, %d and %d", gets, applies, swaps, ns, tc.gets, tc.applies, tc.swaps)
			}
			if other := ct.total(rpc.MethodGet, "") + ct.total(rpc.MethodApply, "") + ct.total(rpc.MethodSwap, "") - gets - applies - swaps; other != 0 {
				t.Errorf("%d gets/applies/swaps outside %s at write time, want 0", other, ns)
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

// gateTransport parks the first write (apply or swap) to one namespace
// until a second read (get or swap) of that namespace arrives (or
// patience runs out), which lines two concurrent writers up so both read
// before either writes — if nothing stops them.
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
		if req.Method == rpc.MethodGet || req.Method == rpc.MethodSwap {
			if g.gets++; g.gets == 2 {
				close(g.second)
			}
		}
		if req.Method == rpc.MethodApply || req.Method == rpc.MethodSwap {
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

// TestFailedMaintenanceIsRequeued: a round whose index apply fails puts
// every task back on the queue, and they complete once the index
// range's primary is back.
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
	for _, u := range []string{"bob", "carol"} {
		if err := lc.Insert("users", Row{"id": u, "name": u, "birthday": 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	lc.CrashNode(ids[1])
	edges := [][2]string{{"alice", "bob"}, {"alice", "carol"}, {"carol", "bob"}}
	for _, e := range edges {
		if err := lc.Insert("friendships", Row{"f1": e[0], "f2": e[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := lc.DrainMaintenance(10); n != 0 || err == nil {
		t.Fatalf("DrainMaintenance with the index primary down = %d, %v, want 0 and an error", n, err)
	}
	if pending, _ := lc.MaintenanceBacklog(0); pending != len(edges) {
		t.Fatalf("%d tasks pending after the failed drain, want every task back (%d)", pending, len(edges))
	}

	lc.RecoverNode(ids[1])
	if n, err := lc.DrainMaintenance(10); n != len(edges) || err != nil {
		t.Fatalf("DrainMaintenance after recovery = %d, %v, want %d tasks", n, err, len(edges))
	}
	// (The friends query reads the friendships table itself; the join
	// view is the query that depends on maintenance.)
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil || len(rows) != 2 {
		t.Fatalf("view after recovery = %v, %v, want bob and carol", rows, err)
	}
	checkIndexesMatchRebuild(t, lc.Cluster, socialDDL)
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

// TestUpdateFuncReadsThePrimaryThroughAFailover: a read-modify-write
// whose primary is down waits for it, as its write does, rather than
// computing its row from a secondary's older image and overwriting the
// updates that secondary never received.
func TestUpdateFuncReadsThePrimaryThroughAFailover(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{Clock: clock.NewVirtual(t0), ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(noIndexDDL); err != nil {
		t.Fatal(err)
	}
	pk := Row{"id": "counter"}
	if err := lc.Insert("users", Row{"id": "counter", "birthday": 0}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ns := planner.TableNamespace("users")
	key, err := row.EncodeKey(pk, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := lc.Router().Map(ns)
	replicas := m.Lookup(key).Replicas
	primary, secondary := replicas[0], replicas[1]
	lc.PartitionReplica(secondary) // it keeps answering reads at 0

	increment := func() error {
		return lc.UpdateFunc("users", pk, func(cur Row) (Row, error) {
			cur["birthday"] = cur["birthday"].(int64) + 1
			return cur, nil
		})
	}
	for i := 0; i < 2; i++ {
		if err := increment(); err != nil {
			t.Fatal(err)
		}
	}
	lc.CrashNode(primary)
	done := make(chan error, 1)
	go func() { done <- increment() }()
	time.Sleep(50 * time.Millisecond)
	lc.RecoverNode(primary)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	val, _, found, err := lc.Router().GetFrom(ns, primary, key)
	if err != nil || !found {
		t.Fatalf("primary read = %v, %v", found, err)
	}
	got, err := row.Decode(val)
	if err != nil {
		t.Fatal(err)
	}
	if got["birthday"] != int64(3) {
		t.Fatalf("the primary holds %v after three increments, want 3", got["birthday"])
	}
}

// swapShimTransport delivers the first swap to one namespace and then
// loses its answer, as a call timeout or a torn connection does, so the
// router re-sends it.
type swapShimTransport struct {
	next      rpc.Transport
	namespace string

	mu    sync.Mutex
	armed bool
	swaps int
}

func (s *swapShimTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	s.mu.Lock()
	lose := false
	if s.armed && req.Method == rpc.MethodSwap && req.Namespace == s.namespace {
		s.swaps++
		lose = s.swaps == 1
	}
	s.mu.Unlock()
	resp, err := s.next.Call(addr, req)
	if lose {
		return rpc.Response{}, rpc.ErrUnreachable
	}
	return resp, err
}

// TestSwapRedeliveryKeepsIndexExact: a swap whose answer is lost is
// re-sent, finds its own record stored, and must still hand index
// maintenance the row it displaced the first time — else the old row's
// view entries would never be retired.
func TestSwapRedeliveryKeepsIndexExact(t *testing.T) {
	shim := &swapShimTransport{namespace: planner.TableNamespace("users")}
	c := newWrappedCluster(t, 1, socialDDL, func(next rpc.Transport) rpc.Transport {
		shim.next = next
		return shim
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
	shim.mu.Lock()
	shim.armed = true
	shim.mu.Unlock()

	if err := c.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 20}); err != nil {
		t.Fatal(err)
	}
	shim.mu.Lock()
	swaps := shim.swaps
	shim.mu.Unlock()
	if swaps != 2 {
		t.Fatalf("%d swaps reached the transport, want the lost one and its re-delivery", swaps)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["birthday"] != int64(20) {
		t.Fatalf("view holds %v, want bob's new birthday (20) only", rows)
	}
}
