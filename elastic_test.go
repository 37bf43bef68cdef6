package scads

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/director"
	"scads/internal/migration"
	"scads/internal/repair"
)

func TestElasticActuatorGrowsAndShrinksRealCluster(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(2, Config{Clock: vc, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	seedUsers(t, lc.Cluster, 60)
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Split so there is something to spread.
	if err := lc.SplitTable("users", "user0020", "user0040"); err != nil {
		t.Fatal(err)
	}

	act := NewElasticActuator(lc)
	act.OnError = func(err error) { t.Fatalf("actuator: %v", err) }
	d := director.New(vc, act, director.Config{
		SLALatency: 100 * time.Millisecond,
		Policy:     director.Reactive,
		MinServers: 2,
	})

	if act.Running() != 2 {
		t.Fatalf("running = %d", act.Running())
	}

	// Violation: the reactive policy must add a real node. Request is
	// asynchronous; Wait blocks until the boot and the spread settle.
	d.Step(director.Observation{Rate: 5000, Latency: time.Second, SuccessRate: 90, SLAMet: false})
	act.Wait()
	if act.Running() != 3 {
		t.Fatalf("running after violation = %d", act.Running())
	}
	if act.Booting() != 0 {
		t.Fatalf("booting after settle = %d", act.Booting())
	}
	// The new node actually carries ranges after the spread.
	usedNodes := map[string]bool{}
	for _, ns := range lc.Router().Namespaces() {
		m, _ := lc.Router().Map(ns)
		for id := range m.NodesInUse() {
			usedNodes[id] = true
		}
	}
	if len(usedNodes) != 3 {
		t.Fatalf("only %d nodes carry data after grow: %v", len(usedNodes), usedNodes)
	}
	// All data still readable after the migration.
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after grow: found=%v err=%v", id, found, err)
		}
	}

	// Deep underload: the director eventually shrinks back, draining
	// the released node's data to survivors first.
	vc.Advance(2 * time.Minute)
	d.Step(director.Observation{Rate: 1, Latency: time.Millisecond, SuccessRate: 100, SLAMet: true})
	if act.Running() != 2 {
		t.Fatalf("running after shrink = %d", act.Running())
	}
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after shrink: found=%v err=%v", id, found, err)
		}
	}
	// Writes still work after both transitions.
	if err := lc.Insert("users", Row{"id": "after", "name": "A", "birthday": 9}); err != nil {
		t.Fatal(err)
	}
}

// TestBootingPreventsDoubleProvision pins the Actuator contract the
// director sizes against: while a Request is in flight its instances
// count as booting, so a control step during the boot window must not
// request capacity again (the repair-storm double-provision bug —
// Booting used to be hardcoded to 0).
func TestBootingPreventsDoubleProvision(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(2, Config{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}

	act := NewElasticActuator(lc)
	act.OnError = func(err error) { t.Errorf("actuator: %v", err) }
	// Hold the requested nodes in the booting state until released.
	hold := make(chan struct{})
	booting := make(chan int, 1)
	act.testHookBooting = func() {
		booting <- act.Booting()
		<-hold
	}
	d := director.New(vc, act, director.Config{
		SLALatency: 100 * time.Millisecond,
		Policy:     director.Reactive,
		MinServers: 2,
	})

	violation := director.Observation{Rate: 5000, Latency: time.Second, SuccessRate: 90, SLAMet: false}
	dec := d.Step(violation)
	if dec.Added != 1 {
		t.Fatalf("first step added %d, want 1", dec.Added)
	}
	if got := <-booting; got != 1 {
		t.Fatalf("Booting during request = %d, want 1", got)
	}

	// A second violation step while the first request is still booting:
	// running(2) + booting(1) covers the target(3), so the director
	// must not double-provision.
	dec = d.Step(violation)
	if dec.Added != 0 {
		t.Fatalf("second step double-provisioned: added %d, booting %d", dec.Added, dec.Booting)
	}
	if dec.Booting != 1 {
		t.Fatalf("director observed booting = %d, want 1", dec.Booting)
	}

	close(hold)
	act.Wait()
	if act.Running() != 3 || act.Booting() != 0 {
		t.Fatalf("after settle: running=%d booting=%d, want 3/0", act.Running(), act.Booting())
	}
}

// TestReleaseBlockedWhileRepairInFlight pins the decommission/repair
// interlock: a scale-down may not tear a node out while a repair job
// is still re-replicating a range onto (or off) it — the repair's flip
// would land on an unregistered node and strand the range. The repair
// migration is held at its snapshot phase on a channel, so the
// ordering is forced, not timed.
func TestReleaseBlockedWhileRepairInFlight(t *testing.T) {
	lc, err := NewLocalCluster(3, Config{
		ReplicationFactor: 2,
		Repair: repair.Config{
			SweepInterval:    time.Hour, // manual sweeps only
			HeartbeatTimeout: 250 * time.Millisecond,
			ReplaceAfter:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	seedUsers(t, lc.Cluster, 60)
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := lc.SplitTable("users", "user0020", "user0040"); err != nil {
		t.Fatal(err)
	}
	if err := lc.SpreadAll(); err != nil {
		t.Fatal(err)
	}

	// Hold the first migration that enters its snapshot phase after
	// arming — that will be the repair's re-replication.
	var armed atomic.Bool
	gate := make(chan struct{})
	blocked := make(chan struct{}, 1)
	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseSnapshot && armed.CompareAndSwap(true, false) {
			blocked <- struct{}{}
			<-gate
		}
	}

	// Crash a middle node: every degraded range repairs onto the only
	// spare — node-003, exactly the node Release will pick as victim.
	lc.CrashNode("node-002")
	armed.Store(true)
	// Sweep until the replacement grace elapses and a re-replication
	// job reaches its (held) snapshot phase; the deadline only bounds
	// test failure, the ordering comes from the channel.
	deadline := time.Now().Add(10 * time.Second)
	for held := false; !held; {
		lc.RepairNow()
		select {
		case <-blocked:
			held = true
		case <-time.After(5 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("repair never scheduled: %+v", lc.RepairStats())
			}
		}
	}

	act := NewElasticActuator(lc)
	act.OnError = func(err error) { t.Errorf("actuator: %v", err) }
	waiting := make(chan string, 1)
	act.testHookReleaseWaiting = func(victim string) { waiting <- victim }

	released := make(chan struct{})
	go func() {
		defer close(released)
		act.Release(1)
	}()

	// Release observed the in-flight repair and is waiting — only then
	// let the repair finish.
	if victim := <-waiting; victim != "node-003" {
		t.Errorf("release waited on %q, want node-003", victim)
	}
	select {
	case <-released:
		t.Fatal("Release completed while the repair was still in flight")
	default:
	}
	close(gate)
	<-released

	// The repair completed before the decommission: nothing failed, and
	// every range is routed to live, registered nodes only.
	if !lc.Repairs().Quiesce(10 * time.Second) {
		t.Fatal("repairs never drained")
	}
	if st := lc.RepairStats(); st.RepairsFailed != 0 {
		t.Fatalf("repairs failed during scale-down: %+v", st)
	}
	if _, ok := lc.Node("node-003"); !ok {
		t.Fatal("victim node handle missing")
	}
	for _, ns := range lc.Router().Namespaces() {
		m, _ := lc.Router().Map(ns)
		for _, rng := range m.Ranges() {
			for _, id := range rng.Replicas {
				if id == "node-003" {
					t.Fatalf("range %q still routed to decommissioned node: %v", rng.Start, rng.Replicas)
				}
			}
		}
	}
	// Acked data survives the interleaving.
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("user%04d", i)
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after repair+decommission: found=%v err=%v", id, found, err)
		}
	}
}

func TestElasticActuatorNeverBelowOneNode(t *testing.T) {
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(2, Config{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	act := NewElasticActuator(lc)
	act.Release(10)
	if act.Running() != 1 {
		t.Fatalf("running = %d, want floor of 1", act.Running())
	}
}

func TestObserveCarriesContentionDelta(t *testing.T) {
	lc, _ := partitionedCluster(t, "read-consistency > availability")
	for i := 0; i < 3; i++ {
		lc.Get("users", Row{"id": "a"})
	}
	obs := lc.Observe(time.Second)
	if obs.Contentions != 3 {
		t.Fatalf("Contentions = %d, want 3", obs.Contentions)
	}
	// The delta was consumed: a second observation reports only new
	// contentions.
	if obs2 := lc.Observe(time.Second); obs2.Contentions != 0 {
		t.Fatalf("second Observe Contentions = %d, want 0", obs2.Contentions)
	}
	lc.Get("users", Row{"id": "a"})
	if obs3 := lc.Observe(time.Second); obs3.Contentions != 1 {
		t.Fatalf("third Observe Contentions = %d, want 1", obs3.Contentions)
	}
}

func TestObserveFeedsDirector(t *testing.T) {
	lc, _ := partitionedCluster(t, "read-consistency > availability")
	lc.Get("users", Row{"id": "a"})

	act := NewElasticActuator(lc)
	d := director.New(lc.Clock(), act, director.Config{
		SLALatency: 100 * time.Millisecond,
		Policy:     director.Reactive,
	})
	dec := d.Step(lc.Observe(time.Second))
	if !strings.Contains(dec.Reason, "contention(1)") {
		t.Fatalf("Reason = %q, want the contention noted", dec.Reason)
	}
	if got := lc.Contention().Total; got != 1 {
		t.Fatalf("contention log total = %d, want 1", got)
	}
}

func TestObserveReportsSLAInterval(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 10)
	for i := 0; i < 20; i++ {
		lc.Get("users", Row{"id": "user0001"})
	}
	obs := lc.Observe(time.Second)
	if obs.SuccessRate != 100 {
		t.Fatalf("SuccessRate = %v", obs.SuccessRate)
	}
	if !obs.SLAMet {
		t.Fatal("healthy cluster should meet the SLA")
	}
}

func TestObserveReplicationAtRisk(t *testing.T) {
	// Updates parked behind a severed link count as at risk once their
	// deadline is close.
	lc, vc := partitionedCluster(t, "availability > read-consistency")
	_ = vc
	obs := lc.Observe(time.Hour) // generous margin: everything pending is at risk
	if obs.ReplicationAtRisk == 0 {
		t.Fatal("parked updates should be at risk")
	}
}
