package scads

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scads/internal/balancer"
	"scads/internal/ledger"
	"scads/internal/migration"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/row"
	"scads/internal/rpc"
)

// newRealClockCluster is the migration-test variant of
// newSocialCluster: real wall clock, so writer goroutines and the
// migrating goroutine genuinely interleave.
func newRealClockCluster(t testing.TB, nodes, rf int) *LocalCluster {
	t.Helper()
	lc, err := NewLocalCluster(nodes, Config{ReplicationFactor: rf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	return lc
}

// userName reads a users row's name for a ledger check.
func userName(c *Cluster) func(id string) (string, bool, error) {
	return func(id string) (string, bool, error) {
		r, found, err := c.Get("users", Row{"id": id})
		name, _ := r["name"].(string)
		return name, found, err
	}
}

func encodedUserKey(t testing.TB, id string) []byte {
	t.Helper()
	key, err := row.EncodeKey(Row{"_": row.Normalize(id)}, []string{"_"})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMigrationUnderConcurrentWritesNoLoss is the acceptance test for
// the online migration protocol: writers hammer inserts, updates and
// deletes into ranges while those same ranges migrate node to node,
// and afterwards every acknowledged write must be readable (and every
// acknowledged delete must stay deleted). Run under -race in CI.
func TestMigrationUnderConcurrentWritesNoLoss(t *testing.T) {
	lc := newRealClockCluster(t, 3, 1)
	ns := planner.TableNamespace("users")
	if err := lc.SplitTable("users", "user1000", "user2000", "user3000"); err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 4
		opsPerWriter  = 250
		migrateRounds = 8
	)

	// The ledger holds each key's last acknowledged write. Writers own
	// disjoint key sets, so per-key order is the program order.
	var led ledger.Ledger

	// Seed every range so snapshot pages carry real data from the first
	// migration on.
	for w := 0; w < writers; w++ {
		for i := 0; i < 40; i++ {
			id, name := fmt.Sprintf("user%04d", w*1000+i), fmt.Sprintf("w%d-r%d", w, -1)
			if err := lc.Insert("users", Row{"id": id, "name": name, "birthday": 1}); err != nil {
				t.Fatal(err)
			}
			led.Put(id, name)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				// Keys cycle so later rounds overwrite earlier ones,
				// spread across all four ranges.
				id := fmt.Sprintf("user%04d", w*1000+i%40)
				if i%10 == 9 {
					if err := lc.Delete("users", Row{"id": id}); err != nil {
						t.Errorf("writer %d: delete %s: %v", w, id, err)
						return
					}
					led.Delete(id)
					continue
				}
				name := fmt.Sprintf("w%d-r%d", w, i)
				if err := lc.Insert("users", Row{"id": id, "name": name, "birthday": i%365 + 1}); err != nil {
					t.Errorf("writer %d: insert %s: %v", w, id, err)
					return
				}
				led.Put(id, name)
			}
		}(w)
	}

	// Concurrently cycle every range across the node set.
	nodeIDs := lc.NodeIDs()
	m, ok := lc.Router().Map(ns)
	if !ok {
		t.Fatal("no partition map")
	}
	migrated := 0
	for r := 0; r < migrateRounds; r++ {
		for i, rng := range m.Ranges() {
			// The first range moves by its nil Start: Lookup(nil) is
			// the first range.
			if err := lc.MoveRange(ns, rng.Start, partition.Spread(r+i, nodeIDs, 1)); err != nil {
				t.Fatalf("migration round %d range %d: %v", r, i, err)
			}
			migrated++
		}
		// Pace the churn across the writers' run so every migration
		// races live writes instead of finishing before them.
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if migrated == 0 {
		t.Fatal("no migrations ran")
	}

	// Every acknowledged write is readable with exactly its last acked
	// content; every acknowledged delete stays deleted (nothing
	// resurrects from a stale snapshot page).
	loss, err := led.Verify(userName(lc.Cluster))
	if err != nil {
		t.Fatal(err)
	}
	if !loss.None() {
		t.Fatalf("after %d migrations of %d acknowledged writes: %v", migrated, led.Acked(), loss)
	}

	st := lc.MigrationStats()
	if st.Succeeded == 0 || st.CleanupPending != 0 {
		t.Fatalf("migration stats = %+v", st)
	}
	// The migrations genuinely moved data while it was being written.
	if st.SnapshotRecords == 0 {
		t.Fatalf("no snapshot records shipped — migrations did not overlap data: %+v", st)
	}
}

// TestMigrationRetryAfterFlipFailure drives the cluster-level retry
// path: the donor crashes after the routing flip but before teardown,
// the migration still counts as succeeded (no acknowledged write is
// at risk), and RetryCleanups finishes the teardown once the donor
// returns.
func TestMigrationRetryAfterFlipFailure(t *testing.T) {
	lc := newRealClockCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 30)
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	donor := m.Ranges()[0].Replicas[0]
	var other string
	for _, id := range lc.NodeIDs() {
		if id != donor {
			other = id
		}
	}

	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseCleanup && ev.Err == nil {
			lc.CrashNode(donor)
		}
	}
	if err := lc.MoveRange(ns, []byte{}, []string{other}); err != nil {
		t.Fatal(err)
	}
	lc.Migrations().OnPhase = nil

	if got := m.Ranges()[0].Replicas[0]; got != other {
		t.Fatalf("flip lost: primary %s", got)
	}
	// All data is served by the new primary while teardown is pending.
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after flip: found=%v err=%v", id, found, err)
		}
	}
	if st := lc.MigrationStats(); st.CleanupPending == 0 {
		t.Fatalf("expected pending cleanup, stats = %+v", st)
	}

	lc.RecoverNode(donor)
	if remaining := lc.Migrations().RetryCleanups(); remaining != 0 {
		t.Fatalf("RetryCleanups left %d nodes pending", remaining)
	}
	node, _ := lc.Node(donor)
	stats := node.Engine().Stats()
	if stats.RecordCount != 0 {
		t.Fatalf("donor still holds %d records after retried teardown", stats.RecordCount)
	}

	// The same migration re-run is an idempotent no-op, and the range
	// can migrate back onto the cleaned donor.
	if err := lc.MoveRange(ns, []byte{}, []string{other}); err != nil {
		t.Fatal(err)
	}
	if err := lc.MoveRange(ns, []byte{}, []string{donor}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after migrating back: found=%v err=%v", id, found, err)
		}
	}
}

// TestRebalanceReturnsExecutedPrefix: a mid-plan failure reports the
// executed prefix instead of discarding which actions already took
// effect.
func TestRebalanceReturnsExecutedPrefix(t *testing.T) {
	lc := newRealClockCluster(t, 1, 1)
	// Several ranges, all hot and all on node-001: the planner proposes
	// moves onto the idle fresh nodes (splits may come along too).
	if err := lc.SplitTable("users", "user0015", "user0030", "user0045"); err != nil {
		t.Fatal(err)
	}
	seedUsers(t, lc.Cluster, 60)
	// Reading every row back lifts the window past the planner's idle
	// floor.
	for i := 0; i < 60; i++ {
		if _, _, err := lc.Get("users", Row{"id": fmt.Sprintf("user%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := lc.AddStorageNode(); err != nil {
			t.Fatal(err)
		}
	}
	// The fresh nodes are planning targets but cannot accept the data
	// copy: every move fails, every split succeeds.
	lc.PartitionReplica("node-002")
	lc.PartitionReplica("node-003")

	plan := lc.RebalancePlan(BalanceConfig{})
	hasMove := false
	for _, a := range plan {
		if a.Kind == balancer.ActionMove {
			hasMove = true
		}
	}
	if !hasMove {
		t.Fatalf("plan has no moves: %v", plan)
	}

	executed, err := lc.Rebalance(BalanceConfig{})
	if err == nil {
		t.Fatal("rebalance succeeded despite unreachable move targets")
	}
	if len(executed) >= len(plan) {
		t.Fatalf("executed %d actions of a %d-action plan that failed", len(executed), len(plan))
	}
	for i, a := range executed {
		if a.Kind != plan[i].Kind || a.Namespace != plan[i].Namespace {
			t.Fatalf("executed[%d] = %v does not match plan prefix %v", i, a, plan[i])
		}
		if a.Kind == balancer.ActionMove {
			t.Fatalf("move reported as executed but all moves must fail: %v", a)
		}
	}
	// The partition map reflects exactly the executed prefix.
	m, _ := lc.Router().Map(planner.TableNamespace("users"))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutePlanSplitAwareMove: a move planned before an earlier
// split in the same plan relocates only the post-split left half when
// re-looked-up by the action's Start key.
func TestExecutePlanSplitAwareMove(t *testing.T) {
	lc := newRealClockCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 40)
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	origPrimary := m.Ranges()[0].Replicas[0]
	var other string
	for _, id := range lc.NodeIDs() {
		if id != origPrimary {
			other = id
		}
	}

	splitAt := encodedUserKey(t, "user0020")
	plan := []BalanceAction{
		{Kind: balancer.ActionSplit, Namespace: ns, Start: nil, At: splitAt},
		// Planned against the pre-split range (Start nil = whole
		// keyspace); must move only [nil, user0020) after the split.
		{Kind: balancer.ActionMove, Namespace: ns, Start: nil, Target: []string{other}},
	}
	executed, err := lc.executePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != len(plan) {
		t.Fatalf("executed %d of %d actions", len(executed), len(plan))
	}
	ranges := m.Ranges()
	if len(ranges) != 2 {
		t.Fatalf("expected 2 ranges, got %d", len(ranges))
	}
	if got := ranges[0].Replicas[0]; got != other {
		t.Fatalf("left half on %s, want %s", got, other)
	}
	if got := ranges[1].Replicas[0]; got != origPrimary {
		t.Fatalf("right half moved to %s; split-aware move must leave it on %s", got, origPrimary)
	}
	// Both halves fully readable from their owners.
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s): found=%v err=%v", id, found, err)
		}
	}
}

// TestQueuedUpdateFollowsTheMove: an update still queued when its range
// moves is owed to the range's new replica set, not to the member that
// left. A pump that kept owing it to that member would deliver it into
// the member's cleanup fence until it gave up, and the repair loop
// would read the drop as proof the node was stale — and demote and
// rebuild it in the ranges it still served correctly.
func TestQueuedUpdateFollowsTheMove(t *testing.T) {
	lc, vc := newSocialCluster(t, 3, 2)
	lc.RepairNow() // the repair loop has seen every node
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	if got := m.Lookup(nil).Replicas; fmt.Sprint(got) != "[node-001 node-002]" {
		t.Fatalf("users on %v, want [node-001 node-002]", got)
	}
	if err := lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 1}); err != nil {
		t.Fatal(err)
	}
	if lc.Pump().Stats().Pending != 1 {
		t.Fatalf("pending = %d, want the insert's update queued", lc.Pump().Stats().Pending)
	}
	if err := lc.MoveRange(ns, nil, []string{"node-001", "node-003"}); err != nil {
		t.Fatal(err)
	}
	for range 20 {
		if err := lc.FlushAll(); err != nil {
			t.Fatal(err)
		}
		vc.Advance(time.Second) // let any retry backoff elapse
	}
	st := lc.Pump().Stats()
	if drops := lc.Pump().DroppedTo("node-002"); drops != 0 || st.Failures != 0 || st.Pending != 0 {
		t.Fatalf("DroppedTo(node-002) = %d, pump %+v: want no drop, no failure, nothing pending", drops, st)
	}
	lc.RepairNow()
	if rs := lc.RepairStats(); rs.Demotions != 0 || rs.RepairsStarted != 0 {
		t.Fatalf("repair after the move: %+v, want no demotion and no repair", rs)
	}
	for _, id := range []string{"node-001", "node-003"} {
		node, _ := lc.Node(id)
		users, err := node.Engine().Namespace(ns)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := users.GetRecord(recordFor(t, lc, "alice").Key); !ok {
			t.Fatalf("%s lacks alice", id)
		}
	}
}

// TestSplitDuringMoveRefusesTheFlip: a range split between a move's
// plan and its flip is not the range the move planned against. The flip
// is refused, the donor's fence lifts, and both halves stay on the donor
// and serve: every row reads back and the right half takes writes.
func TestSplitDuringMoveRefusesTheFlip(t *testing.T) {
	lc := newRealClockCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 40)
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	donor := m.Lookup(nil).Replicas[0]
	target := "node-001"
	if donor == target {
		target = "node-002"
	}
	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseFlip {
			if err := lc.SplitTable("users", "user0020"); err != nil {
				t.Error(err)
			}
		}
	}
	err := lc.MoveRange(ns, nil, []string{target})
	lc.Migrations().OnPhase = nil
	if !errors.Is(err, partition.ErrReplicasChanged) {
		t.Errorf("MoveRange = %v, want ErrReplicasChanged", err)
	}
	for _, rng := range m.Ranges() {
		if fmt.Sprint(rng.Replicas) != "["+donor+"]" {
			t.Errorf("range %v after the refused flip, want it on %s", rng, donor)
		}
	}
	node, _ := lc.Node(donor)
	if st := node.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 0 {
		t.Errorf("donor holds %d fences after the refused flip", st.Fenced)
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after the refused flip: found=%v err=%v", id, found, err)
		}
	}
	for i := 40; i < 60; i++ {
		if err := lc.Insert("users", Row{"id": fmt.Sprintf("user%04d", i), "name": "right", "birthday": 1}); err != nil {
			t.Fatalf("insert into the right half: %v", err)
		}
	}
}
