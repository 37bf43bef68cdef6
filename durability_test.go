package scads

import (
	"fmt"
	"slices"
	"testing"

	"scads/internal/planner"
)

func TestPlanAndEnforceDurability(t *testing.T) {
	// RF=1 cluster; users declares five nines -> needs 3 replicas at
	// p(fail)=0.01 per repair window.
	lc, _ := newSocialCluster(t, 4, 1)
	if err := lc.ApplyConsistency(`
namespace users { durability: 99.999%; }
`); err != nil {
		t.Fatal(err)
	}
	seedUsers(t, lc.Cluster, 20)
	lc.FlushAll()

	plans, err := lc.PlanDurability(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("plans = %+v", plans)
	}
	p := plans[0]
	if p.Table != "users" || p.RequiredReplicas != 3 || p.CurrentReplicas != 1 || p.Satisfied() {
		t.Fatalf("plan = %+v", p)
	}

	after, err := lc.EnforceDurability(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !after[0].Satisfied() {
		t.Fatalf("enforcement did not satisfy: %+v", after[0])
	}
	// The map now carries >= 3 replicas on every users range and each
	// replica actually holds the data: kill any two of them and reads
	// still succeed.
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	replicas := m.Ranges()[0].Replicas
	if len(replicas) < 3 {
		t.Fatalf("replicas = %v", replicas)
	}
	lc.CrashNode(replicas[0])
	lc.CrashNode(replicas[1])
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) with 2 replicas dead: found=%v err=%v", id, found, err)
		}
	}
}

// TestEnforceDurabilityAddsLeastLoadedNodes: the added replicas are
// the serving nodes holding the fewest ranges, even when others come
// first by ID.
func TestEnforceDurabilityAddsLeastLoadedNodes(t *testing.T) {
	// Four namespaces on three nodes at RF 1, then two empty nodes.
	lc, _ := newSocialCluster(t, 3, 1)
	if err := lc.ApplyConsistency(`namespace users { durability: 99.999%; }`); err != nil {
		t.Fatal(err)
	}
	seedUsers(t, lc.Cluster, 20)
	lc.FlushAll()
	for i := 0; i < 2; i++ {
		if _, err := lc.AddStorageNode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lc.EnforceDurability(0.01); err != nil {
		t.Fatal(err)
	}
	m, _ := lc.Router().Map(planner.TableNamespace("users"))
	if got, want := m.Ranges()[0].Replicas, []string{"node-001", "node-004", "node-005"}; !slices.Equal(got, want) {
		t.Fatalf("users replicas = %v, want %v", got, want)
	}
	lc.CrashNode("node-001")
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) with the primary dead: found=%v err=%v", id, found, err)
		}
	}
}

func TestEnforceDurabilityInsufficientNodes(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	lc.ApplyConsistency(`namespace users { durability: 99.999%; }`)
	lc.Insert("users", Row{"id": "a", "name": "A", "birthday": 1})
	lc.FlushAll()
	if _, err := lc.EnforceDurability(0.01); err == nil {
		t.Fatal("enforcement succeeded with only 2 nodes for 3 replicas")
	}
}

func TestPlanDurabilitySkipsUnspecified(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	lc.ApplyConsistency(`namespace users { staleness: 5s; }`) // no durability
	plans, err := lc.PlanDurability(0.01)
	if err != nil || len(plans) != 0 {
		t.Fatalf("plans = %v err = %v", plans, err)
	}
}
