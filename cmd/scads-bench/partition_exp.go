package main

import (
	"errors"
	"fmt"
	"time"

	"scads"
	"scads/internal/clock"
	"scads/internal/expgrid"
	"scads/internal/planner"
)

// runE10 reproduces §3.3.1's contention example end-to-end: two
// datacenters disconnect (modelled as a severed replication link plus
// a crashed primary), making the availability SLA and the staleness
// bound unsatisfiable at once. The namespace's declared priority order
// decides the outcome; the contention is noted for the
// director/operators either way.
func runE10(expgrid.Params) (expgrid.Metrics, error) {
	run := func(priority string) (served, failed, stale int, noted scads.ContentionStats) {
		vc := clock.NewVirtual(t0)
		lc, err := scads.NewLocalCluster(2, scads.Config{Clock: vc, ReplicationFactor: 2})
		must(err)
		defer lc.Close()
		must(lc.DefineSchema(socialDDL))
		must(lc.ApplyConsistency(fmt.Sprintf(
			"namespace users { staleness: 5s; priority: %s; }", priority)))

		m, _ := lc.Router().Map(planner.TableNamespace("users"))
		primary := m.Ranges()[0].Replicas[0]
		secondary := m.Ranges()[0].Replicas[1]

		// Seed v1 everywhere, then partition and write v2.
		must(lc.Insert("users", scads.Row{"id": "a", "name": "v1", "birthday": 1}))
		lc.Pump().Drain(100)
		lc.PartitionReplica(secondary)
		must(lc.Insert("users", scads.Row{"id": "a", "name": "v2", "birthday": 1}))
		lc.Pump().Drain(100)
		vc.Advance(10 * time.Second)
		lc.CrashNode(primary)

		for i := 0; i < 100; i++ {
			r, _, err := lc.Get("users", scads.Row{"id": "a"})
			switch {
			case errors.Is(err, scads.ErrStaleReplicas):
				failed++
			case err == nil:
				served++
				if r["name"] == "v1" {
					stale++
				}
			}
		}
		return served, failed, stale, lc.Contention()
	}

	fmt.Printf("%-36s %8s %8s %8s %14s\n",
		"priority order", "served", "failed", "stale", "noted-events")
	m := expgrid.Metrics{}
	for _, o := range []struct{ key, prio string }{
		{"avail_first", "availability > read-consistency"},
		{"consistency_first", "read-consistency > availability"},
	} {
		served, failed, stale, noted := run(o.prio)
		fmt.Printf("%-36s %8d %8d %8d %14d\n", o.prio, served, failed, stale, noted.Total)
		m[o.key+"_served"] = float64(served)
		m[o.key+"_failed"] = float64(failed)
		m[o.key+"_stale"] = float64(stale)
		m[o.key+"_noted"] = float64(noted.Total)
		m[o.key+"_noted_stale"] = float64(noted.StaleServed)
		m[o.key+"_noted_failed"] = float64(noted.ReadsFailed)
	}
	fmt.Println("\navailability-first keeps serving (every answer is the stale v1);")
	fmt.Println("read-consistency-first fails every read instead. Both orders note the")
	fmt.Println("contention so the director/operators can re-provision (§3.3.1).")
	return m, nil
}
