package scads

import (
	"testing"

	"scads/internal/admission"
	"scads/internal/rpc"
)

// TestAdmissionBalancesOnEveryPath: every front-door operation that
// admission lets through leaves it exactly once — on success, on a
// quota shed, on an unknown table and on a node's failure — so the
// in-flight count overload shedding watches returns to zero after each.
func TestAdmissionBalancesOnEveryPath(t *testing.T) {
	lc, _ := newSocialCluster(t, 1, 1)
	lc.SetTenant("capped", admission.TenantConfig{OpsPerSec: 1, Burst: 1})
	capped := lc.NewSession("users")
	capped.BindTenant("capped")
	alice := Row{"id": "alice"}
	friends := map[string]any{"user": "alice"}
	shed := func(err error) bool { return rpc.IsOverloaded(err) }
	fails := func(err error) bool { return err != nil && !rpc.IsOverloaded(err) }
	succeeds := func(err error) bool { return err == nil }

	step := func(name string, want func(error) bool, op func() error) {
		t.Helper()
		if err := op(); !want(err) {
			t.Fatalf("%s: unexpected outcome %v", name, err)
		}
		if n := lc.Admission().Stats().InFlight; n != 0 {
			t.Fatalf("%s: %d operations still in flight, want 0", name, n)
		}
	}
	step("Insert", succeeds, func() error {
		return lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 42})
	})
	step("Get", succeeds, func() error { _, _, err := lc.Get("users", alice); return err })
	step("GetMulti", succeeds, func() error {
		_, _, err := lc.GetMulti("users", []Row{alice, {"id": "bob"}})
		return err
	})
	step("InsertBatch", succeeds, func() error {
		return lc.InsertBatch("friendships", []Row{{"f1": "alice", "f2": "bob"}, {"f1": "alice", "f2": "carol"}})
	})
	step("query by primary key", succeeds, func() error { _, err := lc.Query("findUser", friends); return err })
	step("query by scan", succeeds, func() error { _, err := lc.Query("friends", friends); return err })
	step("UpdateFunc", succeeds, func() error {
		return lc.UpdateFunc("users", alice, func(cur Row) (Row, error) {
			cur["name"] = "Alice B."
			return cur, nil
		})
	})
	step("Delete", succeeds, func() error { return lc.Delete("friendships", Row{"f1": "alice", "f2": "carol"}) })

	step("GetSession within quota", succeeds, func() error { _, _, err := lc.GetSession("users", alice, capped); return err })
	step("GetSession over quota", shed, func() error { _, _, err := lc.GetSession("users", alice, capped); return err })
	step("InsertSession over quota", shed, func() error {
		return lc.InsertSession("users", Row{"id": "dave", "name": "Dave", "birthday": 1}, capped)
	})

	step("Get of an unknown table", fails, func() error { _, _, err := lc.Get("nope", alice); return err })
	step("Insert into an unknown table", fails, func() error { return lc.Insert("nope", alice) })

	node, ok := lc.Node(lc.NodeIDs()[0])
	if !ok {
		t.Fatal("no node")
	}
	if err := node.Engine().Close(); err != nil {
		t.Fatal(err)
	}
	step("Get from a failed node", fails, func() error { _, _, err := lc.Get("users", alice); return err })
	step("query from a failed node", fails, func() error { _, err := lc.Query("friends", friends); return err })
	step("Insert into a failed node", fails, func() error {
		return lc.Insert("users", Row{"id": "erin", "name": "Erin", "birthday": 2})
	})
}
