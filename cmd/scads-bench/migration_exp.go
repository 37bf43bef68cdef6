package main

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scads"
	"scads/internal/expgrid"
	"scads/internal/ledger"
	"scads/internal/migration"
	"scads/internal/partition"
	"scads/internal/planner"
)

// runE12 is the writes-during-migration experiment: writer goroutines
// hammer inserts, updates and deletes into four ranges while every
// range is migrated across the node set, repeatedly, under load. It
// proves the online migration protocol's two claims:
//
//   - zero lost updates: every write acknowledged at any point during
//     the run — including writes racing the snapshot copy, the delta
//     catch-up and the fence pause — is readable afterwards with
//     exactly its last acknowledged content, and every acknowledged
//     delete stays deleted;
//   - bounded fence pause: writes are never rejected, only delayed,
//     and the per-migration write-fence pause (fence install to
//     routing flip) stays in the low milliseconds because the fenced
//     drain only ships one final small delta.
//
// The run aborts loudly on any lost, corrupted or resurrected record,
// so capturing this experiment in CI turns the guarantee into a gate.
//
// Grid parameters: nodes, writers, ops_per_writer, migration_rounds,
// value_size (pads the name column so large-value rows exercise the
// snapshot/delta page budgets — the e12-bigval grid row).
func runE12(p expgrid.Params) (expgrid.Metrics, error) {
	c := churn{
		exp:       "e12",
		writers:   p.Int("writers"),
		keys:      50,
		ops:       p.Int("ops_per_writer"),
		rounds:    p.Int("migration_rounds"),
		valueSize: p.Int("value_size"),
	}
	nodes := p.Int("nodes")
	if nodes < 1 || c.writers < 1 || c.writers > 9 || c.ops < 10 || c.rounds < 1 {
		return nil, fmt.Errorf("e12: invalid params: nodes=%d writers=%d (1-9) ops_per_writer=%d (>=10) migration_rounds=%d", nodes, c.writers, c.ops, c.rounds)
	}
	lc, err := scads.NewLocalCluster(nodes, scads.Config{})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	metrics := c.run(lc)
	fmt.Println("every write acknowledged during the copy window, the delta chase and")
	fmt.Println("the fence pause is readable after the handoff: rebalance, decommission")
	fmt.Println("and elastic scale-down are no longer data-loss events under load —")
	fmt.Println("the precondition for the paper's continuous repartitioning (§3.3).")
	return metrics, nil
}

// churn is e12's workload, which e17 reruns on disk-backed, compacting
// nodes: writers insert, update and delete their own keys of the users
// table while every one of its four ranges cycles across the node set,
// then every acknowledged write is read back.
type churn struct {
	exp       string // names the experiment in the abort message
	writers   int    // goroutines; writer w owns keys user<w>000 onwards (1-9)
	keys      int    // keys per writer, all seeded before the churn starts
	ops       int    // ops per writer; 0 = until the range cycling ends
	rounds    int    // cycles of every range across the node set
	valueSize int    // pads the name column to this many bytes
}

// run drives the churn on lc, whose schema is socialDDL, and returns
// e12's metrics. It aborts on any lost, corrupted or resurrected write.
func (c churn) run(lc *scads.LocalCluster) expgrid.Metrics {
	must(lc.SplitTable("users", "user1000", "user2000", "user3000"))
	ns := planner.TableNamespace("users")

	// Each migration's fence pause, from its fence and flip events.
	var (
		pauseMu  sync.Mutex
		fencedAt = map[string]time.Time{}
		pauses   []time.Duration
	)
	lc.Migrations().OnPhase = func(ev migration.Event) {
		k := ev.Namespace + "\x00" + string(ev.Start)
		pauseMu.Lock()
		defer pauseMu.Unlock()
		switch ev.Phase {
		case migration.PhaseFence:
			fencedAt[k] = time.Now()
		case migration.PhaseFlip:
			if t0, ok := fencedAt[k]; ok {
				pauses = append(pauses, time.Since(t0))
				delete(fencedAt, k)
			}
		}
	}

	// Writer w's op i writes this into the name column.
	name := func(w, i int) string {
		s := fmt.Sprintf("w%d-r%d", w, i)
		if c.valueSize > len(s) {
			s += strings.Repeat(".", c.valueSize-len(s))
		}
		return s
	}
	// Seed every range, so snapshots ship real pages rather than
	// migrating empty ranges.
	var led ledger.Ledger
	for w := 0; w < c.writers; w++ {
		for i := 0; i < c.keys; i++ {
			id := fmt.Sprintf("user%04d", w*1000+i)
			must(lc.Insert("users", scads.Row{"id": id, "name": name(w, -1), "birthday": 1}))
			led.Put(id, name(w, -1))
		}
	}

	start := time.Now()
	var (
		cycled atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < c.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < c.ops || (c.ops == 0 && !cycled.Load()); i++ {
				id := fmt.Sprintf("user%04d", w*1000+i%c.keys)
				if i%10 == 9 {
					must(lc.Delete("users", scads.Row{"id": id}))
					led.Delete(id)
					continue
				}
				must(lc.Insert("users", scads.Row{"id": id, "name": name(w, i), "birthday": i%365 + 1}))
				led.Put(id, name(w, i))
			}
		}(w)
	}

	// Cycle every range across the node set, paced so the churn spans
	// the writers' run: every migration races live inserts, updates
	// and deletes.
	m, _ := lc.Router().Map(ns)
	nodeIDs := lc.NodeIDs()
	migrations := 0
	for r := 0; r < c.rounds; r++ {
		for i, rng := range m.Ranges() {
			must(lc.MoveRange(ns, rng.Start, partition.Spread(r+i, nodeIDs, 1)))
			migrations++
		}
		time.Sleep(2 * time.Millisecond)
	}
	cycled.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	must(lc.FlushAll())

	loss, err := led.Verify(userName(lc))
	must(err)
	if !loss.None() {
		log.Fatalf("%s: ONLINE MIGRATION LOST DATA: %v", c.exp, loss)
	}
	must(mapValidate(lc, ns))

	pauseMu.Lock()
	defer pauseMu.Unlock()
	st := lc.MigrationStats()
	return expgrid.Metrics{
		"acked_writes":        float64(led.Acked()),
		"lost_updates":        float64(loss.Lost),
		"corrupted_updates":   float64(loss.Corrupted),
		"resurrected_dels":    float64(loss.Resurrected),
		"migrations":          float64(migrations),
		"churn_ms":            float64(elapsed.Milliseconds()),
		"fence_pauses":        float64(st.FencePauses),
		"fence_pause_p50_us":  float64(percentile(pauses, 50).Microseconds()),
		"fence_pause_max_us":  float64(percentile(pauses, 100).Microseconds()),
		"fence_pause_mean_us": float64(mean(pauses).Microseconds()),
		"snapshot_records":    float64(st.SnapshotRecords),
		"delta_records":       float64(st.DeltaRecords),
		"delta_rounds":        float64(st.DeltaRounds),
	}
}

// userName reads a users row's name for a ledger check.
func userName(lc *scads.LocalCluster) func(id string) (string, bool, error) {
	return func(id string) (string, bool, error) {
		row, found, err := lc.Get("users", scads.Row{"id": id})
		name, _ := row["name"].(string)
		return name, found, err
	}
}

func mapValidate(lc *scads.LocalCluster, ns string) error {
	m, ok := lc.Router().Map(ns)
	if !ok {
		return fmt.Errorf("no partition map for %s", ns)
	}
	return m.Validate()
}
