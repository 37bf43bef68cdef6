package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"scads"
	"scads/internal/expgrid"
	"scads/internal/ledger"
	"scads/internal/planner"
	"scads/internal/repair"
)

// runE13 is the crash-recovery experiment: sustained replicated writes
// while a storage node is killed and later resurrected, with the
// self-healing loop (failure detector → primary failover → RF repair)
// doing every bit of the recovery. It proves three claims and aborts
// loudly if any fails:
//
//   - zero acknowledged-write loss: every write acknowledged at any
//     point — before the crash, during the failover window, during RF
//     repair — is readable afterwards with exactly its last
//     acknowledged content, and acknowledged deletes stay deleted;
//   - self-healing writes: writes to the crashed node's ranges succeed
//     again without manual intervention (they stall through the
//     failover window via the coordinator's down-retry loop; the
//     experiment reports that unavailability window, measured by a
//     2ms-interval write prober);
//   - RF restoration: every range is back at full replication strength
//     on live nodes before the run ends, and the resurrected node
//     rejoins as a replica target.
//
// Grid parameters: nodes, rf, writers.
func runE13(p expgrid.Params) (expgrid.Metrics, error) {
	var (
		nodes   = p.Int("nodes")
		rf      = p.Int("rf")
		writers = p.Int("writers")
	)
	if nodes < 2 || rf < 1 || rf > nodes || writers < 1 || writers > 9 {
		return nil, fmt.Errorf("e13: invalid params: nodes=%d (>=2) rf=%d (1..nodes) writers=%d (1-9)", nodes, rf, writers)
	}
	lc, err := scads.NewLocalCluster(nodes, scads.Config{ReplicationFactor: rf, Repair: fastRepair})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	must(lc.SplitTable("users", "user1000", "user2000", "user3000"))
	must(lc.SpreadAll())
	ns := planner.TableNamespace("users")

	// Phase-event latencies for the incident report.
	var (
		evMu       sync.Mutex
		crashedAt  time.Time
		detectedAt time.Time
		failoverAt time.Time
		repairedAt time.Time
		victim     string
	)
	lc.Repairs().OnEvent = func(ev repair.Event) {
		evMu.Lock()
		defer evMu.Unlock()
		switch ev.Kind {
		case repair.EventNodeDown:
			if ev.Node == victim && detectedAt.IsZero() {
				detectedAt = time.Now()
			}
		case repair.EventFailover:
			if failoverAt.IsZero() {
				failoverAt = time.Now()
			}
		case repair.EventRepairDone:
			repairedAt = time.Now()
		}
	}
	lc.StartBackground(4)
	defer lc.StopBackground()

	var (
		led  ledger.Ledger
		stop atomic.Bool
	)
	for w := 0; w < writers; w++ {
		for i := 0; i < 40; i++ {
			id, name := fmt.Sprintf("user%04d", w*1000+i), fmt.Sprintf("w%d-r%d", w, -1)
			must(lc.Insert("users", scads.Row{"id": id, "name": name, "birthday": 1}))
			led.Put(id, name)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id, name := fmt.Sprintf("user%04d", w*1000+i%40), fmt.Sprintf("w%d-r%d", w, i)
				if i%10 == 9 {
					must(lc.Delete("users", scads.Row{"id": id}))
					led.Delete(id)
				} else {
					must(lc.Insert("users", scads.Row{"id": id, "name": name, "birthday": i%365 + 1}))
					led.Put(id, name)
				}
			}
		}(w)
	}

	// Pick the victim: the primary of the first users range, so the
	// crash provably hits the write path.
	m, _ := lc.Router().Map(ns)
	victimID := m.Ranges()[0].Replicas[0]
	evMu.Lock()
	victim = victimID
	evMu.Unlock()

	// The prober hammers one key homed in the victim's range that no
	// writer owns (the ledger leaves it out), and records the longest
	// gap between consecutive successful acks — the client-visible
	// write-unavailability window around the crash.
	var (
		probeStop atomic.Bool
		windowNs  atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastOK := time.Now()
		for !probeStop.Load() {
			err := lc.Insert("users", scads.Row{"id": "user0999", "name": "probe", "birthday": 1})
			now := time.Now()
			if err == nil {
				if gap := now.Sub(lastOK).Nanoseconds(); gap > windowNs.Load() {
					windowNs.Store(gap)
				}
				lastOK = now
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(200 * time.Millisecond) // steady state under load
	evMu.Lock()
	crashedAt = time.Now()
	evMu.Unlock()
	lc.CrashNode(victimID)

	// Sustain the write load through detection, failover and repair.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := lc.RepairStats()
		evMu.Lock()
		done := st.Failovers > 0 && st.RepairsDone > 0 && !repairedAt.IsZero()
		evMu.Unlock()
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)

	// Resurrect the victim: it must rejoin as a replica target (or be
	// torn down and re-enter as a spare) with no operator action.
	lc.RecoverNode(victimID)
	time.Sleep(300 * time.Millisecond)

	probeStop.Store(true)
	stop.Store(true)
	wg.Wait()

	// Settle: repair finishes, replication and index maintenance
	// drain.
	settle := time.Now().Add(10 * time.Second)
	for !ledger.RFRestored(lc, rf) && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
	}
	waitRepairJobs(lc, 10*time.Second)
	must(lc.FlushAll())

	loss, err := led.Verify(userName(lc))
	must(err)
	st := lc.RepairStats()
	evMu.Lock()
	detect := detectedAt.Sub(crashedAt)
	failover := failoverAt.Sub(crashedAt)
	evMu.Unlock()
	metrics := expgrid.Metrics{
		"acked_writes":      float64(led.Acked()),
		"lost_updates":      float64(loss.Lost),
		"corrupted_updates": float64(loss.Corrupted),
		"resurrected_dels":  float64(loss.Resurrected),
		"failovers":         float64(st.Failovers),
		"rf_repairs_done":   float64(st.RepairsDone),
		"rejoins":           float64(st.Rejoins),
		"demotions":         float64(st.Demotions),
		"detect_ms":         float64(detect.Milliseconds()),
		"failover_ms":       float64(failover.Milliseconds()),
		"write_unavail_ms":  float64(time.Duration(windowNs.Load()).Milliseconds()),
	}
	fmt.Printf("%d writers under sustained load; primary %s killed and resurrected; RF=%d over %d nodes\n",
		writers, victimID, rf, nodes)
	if !loss.None() {
		log.Fatalf("e13: CRASH RECOVERY LOST DATA: %v", loss)
	}
	if st.Failovers == 0 || st.RepairsDone == 0 {
		log.Fatalf("e13: recovery machinery never engaged: %+v", st)
	}
	if !ledger.RFRestored(lc, rf) {
		log.Fatalf("e13: RF not restored: repair stats %+v", st)
	}

	fmt.Println("every write acknowledged before, during and after the crash is")
	fmt.Println("readable with its final content; writes to the dead primary's ranges")
	fmt.Println("resumed without intervention once the detector fired; and replication")
	fmt.Println("strength was rebuilt from surviving replicas — node failures are now")
	fmt.Println("routine events, not data-loss incidents (the director's promise in §1).")
	must(mapValidate(lc, ns))
	return metrics, nil
}

// fastRepair is e13's and e14's failure detector, tuned so a crash is
// detected, failed over and repaired within a run of seconds.
var fastRepair = repair.Config{
	SweepInterval:    10 * time.Millisecond,
	HeartbeatTimeout: 250 * time.Millisecond,
	ReplaceAfter:     50 * time.Millisecond,
}

// waitRepairJobs waits, up to timeout, until no repair job the
// background driver started is still running.
func waitRepairJobs(lc *scads.LocalCluster, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); lc.RepairStats().PendingJobs > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}
