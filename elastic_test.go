package scads

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/cloudsim"
	"scads/internal/director"
	"scads/internal/migration"
	"scads/internal/planner"
	"scads/internal/repair"
)

func TestResizeGrowsAndShrinksRealCluster(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{Clock: clock.NewVirtual(t0), ReplicationFactor: 2})
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
	readAll := func(phase string) {
		t.Helper()
		for i := 0; i < 60; i++ {
			id := fmt.Sprintf("user%04d", i)
			if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
				t.Fatalf("Get(%s) after %s: found=%v err=%v", id, phase, found, err)
			}
		}
	}

	if err := lc.Resize(3); err != nil {
		t.Fatal(err)
	}
	if up := lc.Directory().Up(); len(up) != 3 {
		t.Fatalf("serving after grow = %v", up)
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
	readAll("grow")

	// Shrinking drains the newest node to the survivors and forgets it.
	if err := lc.Resize(2); err != nil {
		t.Fatal(err)
	}
	if up := lc.Directory().Up(); !slices.Equal(up, []string{"node-001", "node-002"}) {
		t.Fatalf("serving after shrink = %v, want the newest node gone", up)
	}
	if _, ok := lc.Directory().Get("node-003"); ok {
		t.Fatal("released node still in the directory")
	}
	readAll("shrink")
	// Writes still work after both transitions.
	if err := lc.Insert("users", Row{"id": "after", "name": "A", "birthday": 9}); err != nil {
		t.Fatal(err)
	}
}

// TestDecommissionNeverAddsTheDrainingNode pins the decommission/repair
// interlock: a repair job re-replicating a range onto the victim is
// held at its snapshot while DecommissionNode drains the victim. The
// held move keeps its range's lock, so the decommission's move of that
// range waits and then sees the victim the repair added; no move
// planned after the drain may target the victim. The ordering comes
// from channels; only the deadlines are timed.
func TestDecommissionNeverAddsTheDrainingNode(t *testing.T) {
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
	// arming — that will be the repair's re-replication. A snapshot
	// that starts while the victim is out of Up (draining, then down)
	// and targets it is a violation.
	const victim = "node-003"
	var armed atomic.Bool
	var late atomic.Int64
	gate := make(chan struct{})
	blocked := make(chan struct{}, 1)
	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase != migration.PhaseSnapshot {
			return
		}
		if !slices.Contains(lc.Directory().Up(), victim) && slices.Contains(ev.Target, victim) {
			late.Add(1)
		}
		if armed.CompareAndSwap(true, false) {
			blocked <- struct{}{}
			<-gate
		}
	}

	// Crash a middle node: every degraded range repairs onto the only
	// spare, node-003 — the victim.
	lc.CrashNode("node-002")
	armed.Store(true)
	// Sweep until the repair is held. RepairNow runs its jobs before it
	// returns, so the sweeper waits in the held job, and the jobs after
	// it run once the gate opens.
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for armed.Load() {
			lc.RepairNow()
			time.Sleep(time.Millisecond)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		armed.Store(false)
		<-swept
		t.Fatalf("repair never scheduled: %+v", lc.RepairStats())
	}

	survivors := slices.DeleteFunc(lc.Directory().Up(), func(id string) bool { return id == victim })
	done := make(chan error, 1)
	go func() { done <- lc.DecommissionNode(victim, survivors) }()
	for slices.Contains(lc.Directory().Up(), victim) {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("the victim never drained")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := late.Load(); n > 0 {
		t.Fatalf("%d snapshots targeting the victim started after its drain", n)
	}

	<-swept
	if st := lc.RepairStats(); st.RepairsFailed != 0 {
		t.Fatalf("repairs failed during decommission: %+v", st)
	}
	for _, ns := range lc.Router().Namespaces() {
		m, _ := lc.Router().Map(ns)
		for _, rng := range m.Ranges() {
			if slices.Contains(rng.Replicas, victim) {
				t.Fatalf("range %q still routed to decommissioned node: %v", rng.Start, rng.Replicas)
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

// TestDecommissionRefusedMovesNothing: a decommission that would leave
// a range with no replicas is refused before any move, and the node it
// drained is placeable again.
func TestDecommissionRefusedMovesNothing(t *testing.T) {
	lc, _ := newSocialCluster(t, 2, 1)
	seedUsers(t, lc.Cluster, 10)
	layout := func() string {
		var b strings.Builder
		for _, ns := range slices.Sorted(slices.Values(lc.Router().Namespaces())) {
			m, _ := lc.Router().Map(ns)
			for _, rng := range m.Ranges() {
				fmt.Fprintf(&b, "%s %q %v\n", ns, rng.Start, rng.Replicas)
			}
		}
		return b.String()
	}
	before := layout()
	err := lc.DecommissionNode("node-002", nil)
	if err == nil || !strings.Contains(err.Error(), "would leave") {
		t.Fatalf("DecommissionNode = %v, want the no-replicas refusal", err)
	}
	if after := layout(); after != before {
		t.Fatalf("a refused decommission moved ranges:\nbefore\n%safter\n%s", before, after)
	}
	if st := lc.MigrationStats(); st.Started != 0 {
		t.Fatalf("a refused decommission started migrations: %+v", st)
	}
	if up := lc.Directory().Up(); !slices.Contains(up, "node-002") {
		t.Fatalf("Up after a refused decommission = %v, want node-002 back", up)
	}
}

// TestRepairRunsWhileAPlannedMoveIsHeld: a spread migration held at its
// snapshot keeps only its own range; a crash elsewhere is failed over
// and repaired meanwhile, and the spread completes once released.
func TestRepairRunsWhileAPlannedMoveIsHeld(t *testing.T) {
	lc, err := NewLocalCluster(4, Config{
		ReplicationFactor: 2,
		Repair: repair.Config{
			SweepInterval:    time.Hour, // manual sweeps only
			HeartbeatTimeout: 250 * time.Millisecond,
			ReplaceAfter:     20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	seedUsers(t, lc.Cluster, 40)
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := lc.SplitTable("users", "user0010", "user0020", "user0030"); err != nil {
		t.Fatal(err)
	}
	if err := lc.SpreadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.AddStorageNode(); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	armed.Store(true)
	gate := make(chan struct{})
	held := make(chan migration.Event, 1)
	lc.Migrations().OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseSnapshot && armed.CompareAndSwap(true, false) {
			held <- ev
			<-gate
		}
	}
	ns := planner.TableNamespace("users")
	done := make(chan error, 1)
	go func() { done <- lc.SpreadNamespace(ns) }()
	ev := <-held
	m, _ := lc.Router().Map(ns)
	heldRange := m.Lookup(ev.Start)

	// Crash a node outside the held move's range and target.
	var crashed string
	for _, id := range lc.Directory().Up() {
		if !slices.Contains(ev.Target, id) && !slices.Contains(heldRange.Replicas, id) {
			crashed = id
			break
		}
	}
	if crashed == "" {
		t.Fatalf("no node outside the held move %v of %v", ev.Target, heldRange.Replicas)
	}
	lc.CrashNode(crashed)

	// Every other range regains two replicas without the crashed node
	// while the spread is still held.
	restored := func() bool {
		for _, name := range lc.Router().Namespaces() {
			pm, _ := lc.Router().Map(name)
			for _, rng := range pm.Ranges() {
				if name == ns && bytes.Equal(rng.Start, heldRange.Start) {
					continue
				}
				if len(rng.Replicas) != 2 || slices.Contains(rng.Replicas, crashed) {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !restored() || lc.RepairStats().PendingJobs > 0 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("no repair while the spread was held: %+v", lc.RepairStats())
		}
		lc.RepairNow()
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the spread never returned")
	}
	if got := m.Lookup(ev.Start).Replicas; !slices.Equal(got, ev.Target) {
		t.Fatalf("held range = %v after the spread, want %v", got, ev.Target)
	}
}

func TestResizeNeverBelowOneNode(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{Clock: clock.NewVirtual(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	if err := lc.Resize(-10); err != nil {
		t.Fatal(err)
	}
	if up := lc.Directory().Up(); len(up) != 1 {
		t.Fatalf("serving = %v, want the floor of one node", up)
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

	cloud := cloudsim.New(lc.Clock(), cloudsim.Options{})
	d := director.New(lc.Clock(), cloud, director.Config{
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
