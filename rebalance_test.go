package scads

import (
	"fmt"
	"slices"
	"strings"
	"testing"

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
