package scads

// Tests of a maintenance round: its tasks' index mutations are held in
// groups per (index namespace, staleness bound) and committed once per
// group, yet upkeep stays exact whatever the round holds.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/keycodec"
	"scads/internal/planner"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/view"
)

// TestDeletedFriendshipRetiresEntryOfAChangedFriend: the friendship's
// upkeep runs after bob's birthday changed, so bob's current row no
// longer names the view entry the friendship built; and bob's own
// upkeep finds no friend once the friendship's reverse-index entry is
// gone. The entry must still be retired.
func TestDeletedFriendshipRetiresEntryOfAChangedFriend(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := lc.Delete("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 20}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil || len(rows) != 0 {
		t.Fatalf("alice's friends with birthdays = %v, %v; want none", rows, err)
	}
	checkIndexesMatchRebuild(t, lc.Cluster, socialDDL)
}

// TestJoinUpkeepReadsTheLookedRowsPrimary: a friendship's upkeep looks
// up bob's row while bob's primary is cut off from the coordinator but
// still listed up, and bob's secondary holds his older row. The lookup
// must wait for the primary; read from the secondary, the join view
// would keep bob's old birthday for good.
func TestJoinUpkeepReadsTheLookedRowsPrimary(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 2)
	users := planner.TableNamespace("users")
	for _, ns := range lc.Router().Namespaces() {
		replicas := []string{"node-003", "node-002"}
		if ns == users {
			replicas = []string{"node-001", "node-002"}
		}
		m, _ := lc.Router().Map(ns)
		if err := m.SetReplicas(nil, replicas); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Bob's new row reaches his primary, not yet his secondary.
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.DrainMaintenance(1024); err != nil {
		t.Fatal(err)
	}
	lc.Transport.SetDown("local://node-001", true)
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		time.Sleep(50 * time.Millisecond)
		lc.Transport.SetDown("local://node-001", false)
	}()
	if err := lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.DrainMaintenance(1024); err != nil {
		t.Fatal(err)
	}
	<-healed
	checkIndexesMatchRebuild(t, lc.Cluster, socialDDL)
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil || len(rows) != 1 || rows[0]["birthday"] != int64(20) {
		t.Fatalf("alice's friends with birthdays = %v, %v; want bob's new birthday (20)", rows, err)
	}
}

// TestDrainRoundAppliesOncePerNamespaceAndPrimary: one round of 60
// friendship inserts, whose index namespaces are each split over two
// primaries, costs one apply per (index namespace, primary), not one
// per task.
func TestDrainRoundAppliesOncePerNamespaceAndPrimary(t *testing.T) {
	ct := &countingTransport{n: make(map[call]int)}
	c := newWrappedCluster(t, 2, socialDDL, func(next rpc.Transport) rpc.Transport {
		ct.next = next
		return ct
	})
	// Keys below "m" on node-001 first, the rest on node-002 first.
	split := keycodec.MustEncode("m")
	indexes := []string{"idx.view_friendsWithUpcomingBirthdays", "idx." + planner.ReverseIndexName("friendships", "f2")}
	for _, ns := range indexes {
		m, ok := c.router.Map(ns)
		if !ok {
			t.Fatalf("no map for %s", ns)
		}
		if err := m.Split(split); err != nil {
			t.Fatal(err)
		}
		if err := m.SetReplicas(nil, []string{"node-001", "node-002"}); err != nil {
			t.Fatal(err)
		}
		if err := m.SetReplicas(split, []string{"node-002", "node-001"}); err != nil {
			t.Fatal(err)
		}
	}
	const tasks = 60
	friend := func(i int) string { return fmt.Sprintf("%c%02d", "an"[i%2], i) } // both halves of the reverse index
	for i := 0; i < tasks; i++ {
		if err := c.Insert("users", Row{"id": friend(i), "name": "F", "birthday": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		f1 := []string{"alice", "zoe"}[i/2%2] // both halves of the view
		if err := c.Insert("friendships", Row{"f1": f1, "f2": friend(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ct.reset()
	if n, err := c.DrainMaintenance(1024); n != tasks || err != nil {
		t.Fatalf("DrainMaintenance = %d, %v, want %d tasks", n, err, tasks)
	}
	ct.mu.Lock()
	seen := make(map[call]bool)
	for k, n := range ct.n {
		if k.method != rpc.MethodApply {
			continue
		}
		seen[k] = true
		if n > 1 {
			t.Errorf("%d applies to %s on %s in one round, want 1", n, k.namespace, k.addr)
		}
	}
	ct.mu.Unlock()
	if len(seen) != 2*len(indexes) {
		t.Errorf("applies reached %d (namespace, primary) pairs, want %d: %v", len(seen), 2*len(indexes), seen)
	}
	checkIndexesMatchRebuild(t, c, socialDDL)
}

// roundOfChanges queues, in one of two orders, friendship inserts and
// deletes and changes to the friends' users rows, all for one round.
func roundOfChanges(t *testing.T, lc *LocalCluster, usersFirst bool) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := lc.Insert("users", Row{"id": fmt.Sprintf("u%d", i), "name": "U", "birthday": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 40}); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{{"alice", "u0"}, {"alice", "u1"}, {"alice", "u2"}, {"alice", "u3"}, {"u0", "alice"}, {"u1", "u2"}} {
		if err := lc.Insert("friendships", Row{"f1": e[0], "f2": e[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	friendships := func() error {
		for _, f2 := range []string{"u4", "u5", "u8"} {
			if err := lc.Insert("friendships", Row{"f1": "alice", "f2": f2}); err != nil {
				return err
			}
		}
		for _, e := range [][2]string{{"alice", "u0"}, {"alice", "u1"}, {"u1", "u2"}} {
			if err := lc.Delete("friendships", Row{"f1": e[0], "f2": e[1]}); err != nil {
				return err
			}
		}
		return nil
	}
	users := func() error {
		for _, u := range []Row{
			{"id": "u0", "name": "U", "birthday": 100},
			{"id": "u2", "name": "U", "birthday": 102},
			{"id": "u4", "name": "U", "birthday": 104},
			{"id": "u8", "name": "U", "birthday": 108},
			{"id": "alice", "name": "Alice", "birthday": 50},
		} {
			if err := lc.Insert("users", u); err != nil {
				return err
			}
		}
		return lc.Delete("users", Row{"id": "u3"})
	}
	first, second := friendships, users
	if usersFirst {
		first, second = users, friendships
	}
	if err := first(); err != nil {
		t.Fatal(err)
	}
	if err := second(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedUpkeepIsExact: a round holding friendship inserts and
// deletes and changes to the friends' rows, in either queue order,
// leaves every index as a rebuild from the base tables would.
func TestGroupedUpkeepIsExact(t *testing.T) {
	for _, usersFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("usersFirst=%v", usersFirst), func(t *testing.T) {
			lc, _ := newSocialCluster(t, 2, 1)
			roundOfChanges(t, lc, usersFirst)
			pending, _ := lc.MaintenanceBacklog(0)
			if n, err := lc.DrainMaintenance(1024); n != pending || err != nil {
				t.Fatalf("DrainMaintenance = %d, %v, want all %d tasks in one round", n, err, pending)
			}
			checkIndexesMatchRebuild(t, lc.Cluster, socialDDL)
		})
	}
}

// TestRoundOfMixedBoundsIsExact: one round holds tasks of tables with
// different staleness bounds; each index record replicates under the
// bound of the table it derives from, and the indexes stay exact.
func TestRoundOfMixedBoundsIsExact(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2) // default bound 30s
	if err := lc.ApplyConsistency(`namespace friendships { staleness: 1s; }`); err != nil {
		t.Fatal(err)
	}
	roundOfChanges(t, lc, false)
	lc.Pump().Drain(4096) // the base rows' own replication
	pending, _ := lc.MaintenanceBacklog(0)
	if n, err := lc.DrainMaintenance(1024); n != pending || err != nil {
		t.Fatalf("DrainMaintenance = %d, %v, want all %d tasks in one round", n, err, pending)
	}
	// The six friendship changes each put or delete one reverse-index
	// entry and one view entry; the users changes' entries are due in
	// 30s.
	if got := lc.Pump().AtRisk(2 * time.Second); got != 12 {
		t.Errorf("%d index updates due within 2s, want the friendship changes' 12", got)
	}
	checkIndexesMatchRebuild(t, lc.Cluster, socialDDL)
}

// TestOverBoundDeleteDoesNotWedgeUpkeep: alice's four friendships are
// over f1's declared bound of 2, so retiring one of her view entries
// fails with ErrCardinalityViolated every time it runs. That task is
// parked; it holds back no other task (dave's friendship reaches his
// view), and it runs again once its key is written.
func TestOverBoundDeleteDoesNotWedgeUpkeep(t *testing.T) {
	ddl := strings.Replace(socialDDL, "CARDINALITY f1 5000", "CARDINALITY f1 2", 1)
	lc, err := NewLocalCluster(1, Config{Clock: clock.NewVirtual(t0), ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(ddl); err != nil {
		t.Fatal(err)
	}
	for i, u := range []string{"b1", "b2", "b3", "b4", "carol"} {
		if err := lc.Insert("users", Row{"id": u, "name": u, "birthday": i + 1}); err != nil {
			t.Fatal(err)
		}
		if u != "carol" {
			if err := lc.Insert("friendships", Row{"f1": "alice", "f2": u}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	if err := lc.Delete("friendships", Row{"f1": "alice", "f2": "b1"}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "dave", "f2": "carol"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := lc.DrainMaintenance(1024); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "dave"})
	if err != nil || len(rows) != 1 || rows[0]["id"] != "carol" {
		t.Fatalf("dave's friends with birthdays = %v, %v; want carol", rows, err)
	}
	st := lc.Stats()
	if st.Maintenance != 0 || st.Parked != 1 || !errors.Is(st.ParkedErr, view.ErrCardinalityViolated) {
		t.Fatalf("Stats: %d pending, %d parked, last error %v; want 0, 1 and ErrCardinalityViolated",
			st.Maintenance, st.Parked, st.ParkedErr)
	}

	// A write to the parked task's key queues it again, ahead of the
	// write's own task; it still fails and is parked once more.
	if err := lc.Insert("friendships", Row{"f1": "alice", "f2": "b1"}); err != nil {
		t.Fatal(err)
	}
	if st := lc.Stats(); st.Maintenance != 2 || st.Parked != 0 {
		t.Fatalf("after a write to its key: %d pending, %d parked; want 2 and 0", st.Maintenance, st.Parked)
	}
	if n, err := lc.DrainMaintenance(1024); n != 1 || err != nil {
		t.Fatalf("DrainMaintenance = %d, %v; want the write's task done and nil", n, err)
	}
	if st := lc.Stats(); st.Maintenance != 0 || st.Parked != 1 {
		t.Fatalf("after the drain: %d pending, %d parked; want 0 and 1", st.Maintenance, st.Parked)
	}
}

// TestUndecodableRowParksItsTask: an insert displaces a users row whose
// stored bytes do not decode, so its upkeep fails with row.ErrCorrupt
// however often it runs. The task is parked; it holds back no other
// task (dave's friendship reaches his view).
func TestUndecodableRowParksItsTask(t *testing.T) {
	lc, err := NewLocalCluster(1, Config{Clock: clock.NewVirtual(t0), ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	for i, u := range []string{"bob", "carol"} {
		if err := lc.Insert("users", Row{"id": u, "name": u, "birthday": i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// bob's stored row becomes bytes that do not decode.
	node, _ := lc.Node(lc.NodeIDs()[0])
	users, err := node.Engine().Namespace(planner.TableNamespace("users"))
	if err != nil {
		t.Fatal(err)
	}
	key := keycodec.MustEncode("bob")
	stored, found, err := users.GetRecord(key)
	if err != nil || !found {
		t.Fatalf("bob's stored row: %v, %v", found, err)
	}
	if err := users.Apply(record.Record{Key: key, Value: []byte{1, 1, 'a', 0x7f}, Version: stored.Version + 1}); err != nil {
		t.Fatal(err)
	}

	if err := lc.Insert("users", Row{"id": "bob", "name": "bob", "birthday": 7}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "dave", "f2": "carol"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.DrainMaintenance(1024); err != nil {
		t.Fatal(err)
	}
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "dave"})
	if err != nil || len(rows) != 1 || rows[0]["id"] != "carol" {
		t.Fatalf("dave's friends with birthdays = %v, %v; want carol", rows, err)
	}
	st := lc.Stats()
	if st.Maintenance != 0 || st.Parked != 1 || !errors.Is(st.ParkedErr, row.ErrCorrupt) {
		t.Fatalf("Stats: %d pending, %d parked, last error %v; want 0, 1 and row.ErrCorrupt",
			st.Maintenance, st.Parked, st.ParkedErr)
	}
}

// commitGate, once armed, holds the first apply to a namespace other
// than a table's (a round's index commit) until release is closed;
// held is closed when it does.
type commitGate struct {
	next    rpc.Transport
	armed   atomic.Bool
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *commitGate) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if h.armed.Load() && req.Method == rpc.MethodApply && !strings.HasPrefix(req.Namespace, planner.TableNamespace("")) {
		h.once.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	return h.next.Call(addr, req)
}

// TestBacklogCountsRoundInFlight: the tasks a round popped stay pending
// while it commits them, as the pump's deliveries in flight do; the
// backlog does not read 0 mid-round and jump back up if the round fails.
func TestBacklogCountsRoundInFlight(t *testing.T) {
	hold := &commitGate{held: make(chan struct{}), release: make(chan struct{})}
	c := newWrappedCluster(t, 1, socialDDL, func(next rpc.Transport) rpc.Transport {
		hold.next = next
		return hold
	})
	for _, u := range []string{"bob", "carol", "dave"} {
		if err := c.Insert("users", Row{"id": u, "name": u, "birthday": 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"bob", "carol", "dave"} {
		if err := c.Insert("friendships", Row{"f1": "alice", "f2": u}); err != nil {
			t.Fatal(err)
		}
	}
	hold.armed.Store(true)
	drained := make(chan error, 1)
	go func() {
		_, err := c.DrainMaintenance(1024)
		drained <- err
	}()
	<-hold.held
	pending, _ := c.MaintenanceBacklog(0)
	stats := c.Stats().Maintenance
	close(hold.release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if pending != 3 || stats != 3 {
		t.Fatalf("mid-round backlog %d, Stats().Maintenance %d; want the round's 3 tasks", pending, stats)
	}
	if pending, _ := c.MaintenanceBacklog(0); pending != 0 {
		t.Fatalf("backlog after the round = %d, want 0", pending)
	}
}
