package scads

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/ledger"
	"scads/internal/planner"
	"scads/internal/record"
	"scads/internal/repair"
	"scads/internal/rpc"
)

// newRepairCluster boots a real-clock cluster with the self-healing
// loop tuned for test-speed detection and repair.
func newRepairCluster(t *testing.T, nodes, rf int) *LocalCluster {
	t.Helper()
	lc, err := NewLocalCluster(nodes, Config{
		ReplicationFactor: rf,
		Repair: repair.Config{
			SweepInterval:    10 * time.Millisecond,
			HeartbeatTimeout: 250 * time.Millisecond,
			ReplaceAfter:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	return lc
}

// waitRFRestored waits until every range is back at rf and no repair
// job the background driver started is still running.
func waitRFRestored(t *testing.T, lc *LocalCluster, rf int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ledger.RFRestored(lc, rf) || lc.RepairStats().PendingJobs > 0 {
		if time.Now().After(deadline) {
			var dump []string
			for _, ns := range lc.Router().Namespaces() {
				m, _ := lc.Router().Map(ns)
				for _, rng := range m.Ranges() {
					dump = append(dump, fmt.Sprintf("%s %v", ns, rng.Replicas))
				}
			}
			t.Fatalf("RF never restored; repair stats %+v\nranges: %v", lc.RepairStats(), dump)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRepairHammerCrashRecovery is the fault-injection hammer: a
// concurrent insert/update/delete workload runs while nodes crash,
// recover, and have their replication links severed. The self-healing
// loop (failure detector → primary failover → RF repair) must keep
// every acknowledged write: after the churn settles, zero acknowledged
// writes are lost or corrupted, zero acknowledged deletes resurrect,
// and every range is back at full replication — without any manual
// intervention.
func TestRepairHammerCrashRecovery(t *testing.T) {
	lc := newRepairCluster(t, 4, 2)
	if err := lc.SplitTable("users", "user1000", "user2000", "user3000"); err != nil {
		t.Fatal(err)
	}
	if err := lc.SpreadAll(); err != nil {
		t.Fatal(err)
	}
	// Fault cycles synchronise on detector events rather than fixed
	// sleeps: a crash window only closes once the failure detector has
	// actually marked the victim down, so slow machines never recover a
	// node before the self-healing loop has seen it fail.
	downCh := make(chan string, 64)
	lc.Repairs().OnEvent = func(ev repair.Event) {
		if ev.Kind == repair.EventNodeDown {
			select {
			case downCh <- ev.Node:
			default:
			}
		}
	}
	lc.StartBackground(4)
	defer lc.StopBackground()

	var (
		led  ledger.Ledger
		stop atomic.Bool
	)
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}

	// Seed every range so snapshots and failovers move real data.
	const writers = 4
	for w := 0; w < writers; w++ {
		for i := 0; i < 30; i++ {
			id, name := fmt.Sprintf("user%04d", w*1000+i), fmt.Sprintf("w%d-r%d", w, -1)
			if err := lc.Insert("users", Row{"id": id, "name": name, "birthday": 1}); err != nil {
				t.Fatal(err)
			}
			led.Put(id, name)
		}
	}

	// A surfaced fence error means the coordinator exhausted its whole
	// rpc.FenceRetry budget while a repair-triggered migration held the
	// range fenced — possible on a heavily loaded machine. The write
	// was NOT acknowledged, so skipping the round (no ledger entry)
	// preserves the zero-lost-acked-writes invariant the final sweep
	// checks; any other error is a real failure.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id, name := fmt.Sprintf("user%04d", w*1000+i%30), fmt.Sprintf("w%d-r%d", w, i)
				switch {
				case i%10 == 9:
					if err := lc.Delete("users", Row{"id": id}); err != nil {
						if rpc.IsFenced(err) {
							continue
						}
						fail("writer %d delete %s: %v", w, id, err)
						return
					}
					led.Delete(id)
				case i%17 == 16:
					// Exercise the batched write path's failover
					// fallback too.
					rows := []Row{{"id": id, "name": name, "birthday": i%365 + 1}}
					if err := lc.InsertBatch("users", rows); err != nil {
						if rpc.IsFenced(err) {
							continue
						}
						fail("writer %d batch %s: %v", w, id, err)
						return
					}
					led.Put(id, name)
				default:
					if err := lc.Insert("users", Row{"id": id, "name": name, "birthday": i%365 + 1}); err != nil {
						if rpc.IsFenced(err) {
							continue
						}
						fail("writer %d insert %s: %v", w, id, err)
						return
					}
					led.Put(id, name)
				}
			}
		}(w)
	}

	// Fault injection: crash/recover each node in turn under load, with
	// a replication-link partition layered on a different node. One
	// crash at a time so RF=2 ranges always keep one live replica.
	nodeIDs := lc.NodeIDs()
	for cycle := 0; cycle < 4 && !stop.Load(); cycle++ {
		victim := nodeIDs[cycle%len(nodeIDs)]
		partitioned := nodeIDs[(cycle+2)%len(nodeIDs)]

		failoversBefore := lc.RepairStats().Failovers
		lc.PartitionReplica(partitioned)
		lc.CrashNode(victim)
		// Hold the crash until the detector reports the victim down…
		detected := false
		deadline := time.After(20 * time.Second)
	waitDown:
		for !detected && !stop.Load() {
			select {
			case n := <-downCh:
				detected = n == victim
			case <-deadline:
				fail("cycle %d: %s never detected down", cycle, victim)
				break waitDown
			}
		}
		// …then keep it down until the failover lands (the victim may
		// legitimately hold no primaries after earlier cycles, so this
		// wait is bounded, not asserted) plus a short churn window for
		// repairs to start under load.
		for settled := time.Now().Add(2 * time.Second); lc.RepairStats().Failovers == failoversBefore &&
			time.Now().Before(settled) && !stop.Load(); {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(150 * time.Millisecond)
		lc.RecoverNode(victim)
		lc.HealReplica(partitioned)
		// Let the returned node rejoin and RF settle before the next
		// crash, so two faults never overlap.
		settled := time.Now().Add(20 * time.Second)
		for !ledger.RFRestored(lc, 2) && time.Now().Before(settled) && !stop.Load() {
			time.Sleep(5 * time.Millisecond)
		}
	}

	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	waitRFRestored(t, lc, 2, 30*time.Second)
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Verification: every acknowledged write readable with its last
	// acknowledged content, every acknowledged delete stays dead. Read
	// twice so replica rotation covers both copies — the rebind path
	// guarantees secondaries added mid-churn converge too.
	for pass := 0; pass < 2; pass++ {
		loss, err := led.Verify(userName(lc.Cluster))
		if err != nil {
			t.Fatal(err)
		}
		if !loss.None() {
			t.Fatalf("CRASH RECOVERY LOST DATA (read pass %d of %d acked): %v", pass, led.Acked(), loss)
		}
	}

	st := lc.RepairStats()
	if st.Failovers == 0 {
		t.Fatalf("hammer never exercised failover: %+v", st)
	}
	if st.RepairsDone == 0 {
		t.Fatalf("hammer never completed an RF repair: %+v", st)
	}
	t.Logf("acked=%d failovers=%d demotions=%d repairs=%d rejoins=%d",
		led.Acked(), st.Failovers, st.Demotions, st.RepairsDone, st.Rejoins)
}

// TestRepairRestoresWritesAfterPrimaryCrash is the deterministic core
// of the self-healing story: crash a range's primary, and a write to
// that range — issued with no manual intervention — succeeds once the
// sweep fails over, with zero acknowledged-write loss.
func TestRepairRestoresWritesAfterPrimaryCrash(t *testing.T) {
	lc := newRepairCluster(t, 3, 2)
	if err := lc.Insert("users", Row{"id": "alice", "name": "Alice", "birthday": 1}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	oldPrimary := m.Ranges()[0].Replicas[0]
	lc.CrashNode(oldPrimary)

	// Drive the loop deterministically: one sweep detects + fails over.
	lc.RepairNow()
	if got := m.Ranges()[0].Replicas[0]; got == oldPrimary {
		t.Fatalf("primary still %s after sweep", got)
	}
	// Writes and primary reads work again immediately.
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 2}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	for _, id := range []string{"alice", "bob"} {
		if _, found, err := lc.Get("users", Row{"id": id}); err != nil || !found {
			t.Fatalf("Get(%s) after failover: found=%v err=%v", id, found, err)
		}
	}
	st := lc.RepairStats()
	if st.Failovers == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// RF repair then restores two live replicas without intervention.
	deadline := time.Now().Add(5 * time.Second)
	for !ledger.RFRestored(lc, 2) {
		if time.Now().After(deadline) {
			t.Fatalf("RF not restored: %v (stats %+v)", m.Ranges()[0].Replicas, lc.RepairStats())
		}
		lc.RepairNow()
		time.Sleep(5 * time.Millisecond)
	}

	// The crashed node comes back: it rejoins (or is torn down) and the
	// cluster stays at full strength.
	lc.RecoverNode(oldPrimary)
	lc.RepairNow()
	if !ledger.RFRestored(lc, 2) {
		t.Fatalf("RF lost after recovery: %v", m.Ranges()[0].Replicas)
	}
}

// TestRepairDemotesOnlyTheRangeThatMissedAWrite: at RF 2 one node
// serves both halves of a split table and misses one replicated write
// in the left half. The sweep demotes and rebuilds it in that half
// alone; the right half keeps its set and starts no job.
func TestRepairDemotesOnlyTheRangeThatMissedAWrite(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 2)
	if err := lc.SplitTable("users", "m"); err != nil {
		t.Fatal(err)
	}
	m, _ := lc.Router().Map(planner.TableNamespace("users"))
	halves := m.Ranges()
	if len(halves) != 2 || !slices.Equal(halves[0].Replicas, halves[1].Replicas) {
		t.Fatalf("halves = %+v, want two on one set", halves)
	}
	secondary := halves[0].Replicas[1]
	lc.RepairNow() // a running loop has swept before the fault
	lc.Pump().MaxAttempts = 1
	lc.PartitionReplica(secondary)
	if err := lc.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 2}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	lc.HealReplica(secondary)
	if st := lc.Pump().Stats(); st.Dropped != 1 {
		t.Fatalf("pump %+v, want one drop", st)
	}
	lc.RepairNow()
	if rs := lc.RepairStats(); rs.Demotions != 1 || rs.RepairsStarted != 1 || rs.RepairsDone != 1 {
		t.Fatalf("repair %+v, want one demotion and one repair", rs)
	}
	now := m.Ranges()
	if now[1].Epoch != halves[1].Epoch {
		t.Fatalf("right half changed: %+v, was %+v", now[1], halves[1])
	}
	if !slices.Equal(now[0].Replicas, halves[0].Replicas) {
		t.Fatalf("left half = %v, want %v rebuilt", now[0].Replicas, halves[0].Replicas)
	}
	node, _ := lc.Node(secondary)
	users, err := node.Engine().Namespace(planner.TableNamespace("users"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := users.GetRecord(recordFor(t, lc, "bob").Key); !ok {
		t.Fatalf("rebuilt %s missing the write it missed", secondary)
	}
}

// getGate answers every get with the fault the test sets, in place of
// the node, until the fault is cleared.
type getGate struct {
	next  rpc.Transport
	fault atomic.Pointer[func() (rpc.Response, error)]
}

func (g *getGate) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if f := g.fault.Load(); f != nil && req.Method == rpc.MethodGet {
		return (*f)()
	}
	return g.next.Call(addr, req)
}

// TestRepairGetRidesThroughFailover: the public Get is under the same
// contract as every other request — replicas that are all down or all
// shedding delay it, and it fails only once the budget is spent, with
// the classified error of the fault it was still meeting.
func TestRepairGetRidesThroughFailover(t *testing.T) {
	open := func(t *testing.T) (*Cluster, *getGate) {
		gate := &getGate{}
		c := newWrappedCluster(t, 2, socialDDL, func(next rpc.Transport) rpc.Transport {
			gate.next = next
			return gate
		})
		if err := c.Insert("users", Row{"id": "a", "name": "A", "birthday": 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return c, gate
	}

	t.Run("every replica down, one comes back", func(t *testing.T) {
		t.Parallel()
		c, gate := open(t)
		down := func() (rpc.Response, error) { return rpc.Response{}, rpc.ErrUnreachable }
		gate.fault.Store(&down)
		start := time.Now() // before the outage end is armed, so no Get can beat the bound
		time.AfterFunc(10*rpc.DownRetryPause, func() { gate.fault.Store(nil) })
		r, found, err := c.Get("users", Row{"id": "a"})
		if err != nil || !found || r["name"] != "A" {
			t.Fatalf("Get across the outage = %v, %v, %v", r, found, err)
		}
		if waited := time.Since(start); waited < 10*rpc.DownRetryPause {
			t.Fatalf("Get returned after %v, before a replica was back", waited)
		}
	})

	t.Run("every replica sheds", func(t *testing.T) {
		t.Parallel()
		const hint = 3 * time.Millisecond
		c, gate := open(t)
		shed := func() (rpc.Response, error) {
			return rpc.Response{Err: rpc.ErrString(rpc.Overloaded(hint, "test shed"))}, nil
		}
		gate.fault.Store(&shed)
		start := time.Now()
		_, _, err := c.Get("users", Row{"id": "a"})
		if !rpc.IsOverloaded(err) || rpc.RetryAfter(err) != hint {
			t.Fatalf("Get against shedding replicas = %v, want overloaded with the node's %v hint", err, hint)
		}
		if waited := time.Since(start); waited < rpc.DownRetryBudget {
			t.Fatalf("Get gave up after %v, before its %v budget", waited, rpc.DownRetryBudget)
		}
	})
}

// TestGetAllReplicasStale covers replica ordering on the read path
// when the tracker reports every replica over the staleness bound:
// with availability prioritised the read falls through the stale set
// in rotation order (failing over past a crashed stale replica) and
// serves; with read-consistency prioritised it fails with
// ErrStaleReplicas.
func TestGetAllReplicasStale(t *testing.T) {
	run := func(t *testing.T, priority string, crashFirstStale bool) error {
		lc, vc := newSocialCluster(t, 2, 2)
		if err := lc.ApplyConsistency(fmt.Sprintf(
			"namespace users { staleness: 5s; priority: %s; }", priority)); err != nil {
			t.Fatal(err)
		}
		if err := lc.Insert("users", Row{"id": "a", "name": "A", "birthday": 1}); err != nil {
			t.Fatal(err)
		}
		if err := lc.FlushAll(); err != nil {
			t.Fatal(err)
		}
		ns := planner.TableNamespace("users")
		m, _ := lc.Router().Map(ns)
		replicas := m.Ranges()[0].Replicas
		// Queue an update acked under no replica set of the map — so
		// every member of the current set is owed it — then age it past
		// the bound: the tracker now reports BOTH replicas stale.
		lc.Pump().Enqueue(ns, recordFor(t, lc, "a"), nil, time.Hour)
		vc.Advance(10 * time.Second)
		for _, id := range replicas {
			if lc.Pump().Tracker().Staleness(ns, id) <= 5*time.Second {
				t.Fatalf("replica %s not stale", id)
			}
		}
		if crashFirstStale {
			// The stale fallback must fail over within the stale set
			// too: kill one replica, the other still serves.
			lc.CrashNode(replicas[0])
		}
		_, _, err := lc.Get("users", Row{"id": "a"})
		return err
	}

	t.Run("availability first serves stale in order", func(t *testing.T) {
		if err := run(t, "availability > read-consistency", false); err != nil {
			t.Fatalf("stale read not served: %v", err)
		}
	})
	t.Run("availability first fails over within the stale set", func(t *testing.T) {
		if err := run(t, "availability > read-consistency", true); err != nil {
			t.Fatalf("stale failover read not served: %v", err)
		}
	})
	t.Run("read-consistency first fails", func(t *testing.T) {
		if err := run(t, "read-consistency > availability", false); !errors.Is(err, ErrStaleReplicas) {
			t.Fatalf("err = %v, want ErrStaleReplicas", err)
		}
	})
}

// recordFor builds a pre-versioned record for the users row with the
// given id (tracker staleness bookkeeping needs a real enqueue).
func recordFor(t *testing.T, lc *LocalCluster, id string) record.Record {
	t.Helper()
	tdef, _, err := lc.tableDef("users")
	if err != nil {
		t.Fatal(err)
	}
	key, err := pkKey(tdef, Row{"id": id})
	if err != nil {
		t.Fatal(err)
	}
	return record.Record{Key: key, Value: []byte("x"), Version: 1}
}
