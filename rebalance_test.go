package scads

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"scads/internal/migration"
	"scads/internal/partition"
	"scads/internal/planner"
)

func TestSpreadNamespaceMovesData(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 40)
	lc.FlushAll()

	// Split users into 4 ranges, then add two fresh nodes and spread.
	if err := lc.SplitTable("users", "user0010", "user0020", "user0030"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := lc.AddStorageNode(); err != nil {
			t.Fatal(err)
		}
	}
	ns := planner.TableNamespace("users")
	if err := lc.SpreadNamespace(ns); err != nil {
		t.Fatal(err)
	}

	// Every key still readable.
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after spread: found=%v err=%v", id, found, err)
		}
	}
	// The ranges now use more than the original node set.
	m, _ := lc.Router().Map(ns)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if nodes := m.NodesInUse(); len(nodes) < 4 {
		t.Fatalf("spread used only %d nodes: %v", len(nodes), nodes)
	}
}

func TestDecommissionDeadPrimary(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 2)
	seedUsers(t, lc.Cluster, 30)
	lc.FlushAll() // both replicas hold everything

	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	victim := m.Ranges()[0].Replicas[0]
	lc.CrashNode(victim)

	// Find a serving node not already in the group.
	var candidate string
	for _, id := range lc.NodeIDs() {
		inGroup := false
		for _, rid := range m.Ranges()[0].Replicas {
			if rid == id {
				inGroup = true
			}
		}
		if !inGroup && id != victim {
			candidate = id
		}
	}
	if candidate == "" {
		t.Fatal("no candidate node")
	}

	if err := lc.DecommissionNode(victim, []string{candidate}); err != nil {
		t.Fatal(err)
	}

	// The dead node is out of every replica group.
	for _, nsName := range lc.Router().Namespaces() {
		pm, _ := lc.Router().Map(nsName)
		if pm.NodesInUse()[victim] {
			t.Fatalf("victim still referenced by %s", nsName)
		}
	}
	// All data survived (copied from the live replica) and writes work.
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after decommission: found=%v err=%v", id, found, err)
		}
	}
	if err := lc.Insert("users", Row{"id": "post-decom", "name": "X", "birthday": 1}); err != nil {
		t.Fatalf("write after decommission: %v", err)
	}
}

func TestDecommissionShrinksWhenNoCandidate(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 2)
	seedUsers(t, lc.Cluster, 10)
	lc.FlushAll()

	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	victim := m.Ranges()[0].Replicas[1] // secondary, so copies aren't needed
	if err := lc.DecommissionNode(victim, nil); err != nil {
		t.Fatal(err)
	}
	if m.NodesInUse()[victim] {
		t.Fatal("victim still in use")
	}
	if got := len(m.Ranges()[0].Replicas); got != 1 {
		t.Fatalf("replica group size = %d, want shrunk to 1", got)
	}
}

func TestSpreadAllCoversIndexNamespaces(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	lc.Insert("users", Row{"id": "bob", "name": "B", "birthday": 3})
	lc.Insert("friendships", Row{"f1": "alice", "f2": "bob"})
	lc.FlushAll()
	for i := 0; i < 2; i++ {
		lc.AddStorageNode()
	}
	if err := lc.SpreadAll(); err != nil {
		t.Fatal(err)
	}
	rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("view after SpreadAll: %v %v", rows, err)
	}
}

// layout renders every namespace's replica sets in keyspace order.
func layout(lc *LocalCluster) string {
	var b strings.Builder
	nss := lc.Router().Namespaces()
	slices.Sort(nss)
	for _, ns := range nss {
		m, _ := lc.Router().Map(ns)
		b.WriteString(ns + ":")
		for _, rng := range m.Ranges() {
			fmt.Fprintf(&b, " %v", rng.Replicas)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSpreadLayoutsArePinned pins where DefineSchema, then SplitTable
// and SpreadAll put every range, for the (nodes, RF) shapes the
// benchmark and the grid boot: their setups depend on these layouts.
func TestSpreadLayoutsArePinned(t *testing.T) {
	for _, tc := range []struct {
		nodes, rf      int
		define, spread string
	}{
		{2, 1, `
idx.rev_friendships_f2: [node-002]
idx.view_friendsWithUpcomingBirthdays: [node-001]
tbl.friendships: [node-002]
tbl.users: [node-001]
`, `
idx.rev_friendships_f2: [node-001]
idx.view_friendsWithUpcomingBirthdays: [node-001]
tbl.friendships: [node-001] [node-002]
tbl.users: [node-001] [node-002] [node-001] [node-002]
`},
		{2, 2, `
idx.rev_friendships_f2: [node-002 node-001]
idx.view_friendsWithUpcomingBirthdays: [node-001 node-002]
tbl.friendships: [node-002 node-001]
tbl.users: [node-001 node-002]
`, `
idx.rev_friendships_f2: [node-001 node-002]
idx.view_friendsWithUpcomingBirthdays: [node-001 node-002]
tbl.friendships: [node-001 node-002] [node-002 node-001]
tbl.users: [node-001 node-002] [node-002 node-001] [node-001 node-002] [node-002 node-001]
`},
		{4, 2, `
idx.rev_friendships_f2: [node-004 node-001]
idx.view_friendsWithUpcomingBirthdays: [node-003 node-004]
tbl.friendships: [node-002 node-003]
tbl.users: [node-001 node-002]
`, `
idx.rev_friendships_f2: [node-001 node-002]
idx.view_friendsWithUpcomingBirthdays: [node-001 node-002]
tbl.friendships: [node-001 node-002] [node-002 node-003]
tbl.users: [node-001 node-002] [node-002 node-003] [node-003 node-004] [node-004 node-001]
`},
		{5, 3, `
idx.rev_friendships_f2: [node-004 node-005 node-001]
idx.view_friendsWithUpcomingBirthdays: [node-003 node-004 node-005]
tbl.friendships: [node-002 node-003 node-004]
tbl.users: [node-001 node-002 node-003]
`, `
idx.rev_friendships_f2: [node-001 node-002 node-003]
idx.view_friendsWithUpcomingBirthdays: [node-001 node-002 node-003]
tbl.friendships: [node-001 node-002 node-003] [node-002 node-003 node-004]
tbl.users: [node-001 node-002 node-003] [node-002 node-003 node-004] [node-003 node-004 node-005] [node-004 node-005 node-001]
`},
	} {
		lc, _ := newSocialCluster(t, tc.nodes, tc.rf)
		if got := layout(lc); got != tc.define[1:] {
			t.Errorf("(%d nodes, RF %d) after DefineSchema:\n%swant:\n%s", tc.nodes, tc.rf, got, tc.define[1:])
		}
		if err := lc.SplitTable("users", "user0010", "user0020", "user0030"); err != nil {
			t.Fatal(err)
		}
		if err := lc.SplitTable("friendships", "user0020"); err != nil {
			t.Fatal(err)
		}
		if err := lc.SpreadAll(); err != nil {
			t.Fatal(err)
		}
		if got := layout(lc); got != tc.spread[1:] {
			t.Errorf("(%d nodes, RF %d) after SpreadAll:\n%swant:\n%s", tc.nodes, tc.rf, got, tc.spread[1:])
		}
	}
}

// TestDecommissionPicksLeastLoadedCandidate: the replacement is the
// serving candidate holding the fewest ranges, even when a loaded one
// is listed first.
func TestDecommissionPicksLeastLoadedCandidate(t *testing.T) {
	// Four namespaces on four nodes at RF 1: one range each.
	lc, _ := newSocialCluster(t, 4, 1)
	seedUsers(t, lc.Cluster, 20)
	lc.FlushAll()
	fresh, err := lc.AddStorageNode()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := lc.Router().Map(planner.TableNamespace("users"))
	if got := m.Ranges()[0].Replicas; !slices.Equal(got, []string{"node-001"}) {
		t.Fatalf("users on %v, want [node-001]", got)
	}
	// node-002 holds friendships; the fresh node holds nothing.
	if err := lc.DecommissionNode("node-001", []string{"node-002", fresh}); err != nil {
		t.Fatal(err)
	}
	if got := m.Ranges()[0].Replicas; !slices.Equal(got, []string{fresh}) {
		t.Fatalf("users moved to %v, want [%s]", got, fresh)
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after decommission: found=%v err=%v", id, found, err)
		}
	}
}

// TestSpreadPlansEachRangeOverTheNodesUpThen: a node that goes down
// while a spread is under way is in no plan made after it went down. Here
// a later range's move waits for its lock until node-003 has crashed; a
// plan made over the nodes up when the spread began would promote
// node-003 in that range and fail the spread.
func TestSpreadPlansEachRangeOverTheNodesUpThen(t *testing.T) {
	lc := newRealClockCluster(t, 3, 1)
	seedUsers(t, lc.Cluster, 30)
	if err := lc.SplitTable("users", "user0010", "user0020"); err != nil {
		t.Fatal(err)
	}
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	last := encodedUserKey(t, "user0020")
	// Spread over all three nodes puts range i on node i+1 alone: the
	// first range moves, the second stays, and the last keeps node-003
	// but makes it its primary.
	for key, set := range map[string][]string{"": {"node-002"}, "user0010": {"node-002"}, "user0020": {"node-001", "node-003"}} {
		if err := lc.MoveRange(ns, encodedUserKey(t, key), set); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the last range's lock with a move that plans no change.
	locked, gate := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- lc.Migrations().MoveRange(m, ns, last, func(cur partition.Range) ([]string, error) {
			close(locked)
			<-gate
			return cur.Replicas, nil
		})
	}()
	<-locked
	started := make(chan struct{}, 1)
	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseSnapshot && ev.Start == nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
	}
	spread := make(chan error, 1)
	go func() { spread <- lc.SpreadNamespace(ns) }()
	<-started // the spread is moving the first range
	lc.CrashNode("node-003")
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-spread; err != nil {
		t.Fatalf("spread after node-003 crashed: %v", err)
	}
	lc.Migrations().OnPhase = nil
	if got := m.Lookup(last).Replicas; slices.Contains(got, "node-003") {
		t.Fatalf("last range on %v, still planned over node-003", got)
	}
	for i := 20; i < 30; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after the spread: found=%v err=%v", id, found, err)
		}
	}
}

// TestSpreadPlansAgainAfterALostFlip: a failover that publishes a range
// while the spread moves it refuses that move's flip. The spread plans
// the range once more, from the set the failover left, and finishes.
func TestSpreadPlansAgainAfterALostFlip(t *testing.T) {
	lc := newRealClockCluster(t, 3, 2)
	seedUsers(t, lc.Cluster, 20)
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	if err := lc.MoveRange(ns, nil, []string{"node-002", "node-003"}); err != nil {
		t.Fatal(err)
	}
	flips := 0
	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseFlip && ev.Namespace == ns {
			if flips++; flips == 1 {
				if err := m.SetReplicas(ev.Start, []string{"node-003", "node-002"}); err != nil {
					t.Error(err)
				}
			}
		}
	}
	err := lc.SpreadNamespace(ns)
	lc.Migrations().OnPhase = nil
	if err != nil {
		t.Fatalf("spread after a failover won its flip: %v", err)
	}
	if got := m.Lookup(nil).Replicas; fmt.Sprint(got) != "[node-001 node-002]" || flips != 2 {
		t.Fatalf("range on %v after %d flips, want [node-001 node-002] after 2", got, flips)
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after the spread: found=%v err=%v", id, found, err)
		}
	}
}
