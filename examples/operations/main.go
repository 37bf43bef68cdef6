// Operations: a day in the life of a SCADS cluster — node crash and
// recovery, decommissioning before scale-down, workload-driven
// repartitioning, and the observe edge of the Figure 2 loop
// (SLA interval + replication backlog + requirement contentions).
//
//	go run ./examples/operations
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"scads"
	"scads/internal/planner"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	cluster, err := scads.NewLocalCluster(3, scads.Config{ReplicationFactor: 2})
	must(err)
	defer cluster.Close()

	must(cluster.DefineSchema(`
ENTITY accounts (
    id string PRIMARY KEY,
    owner string,
    balance int
)
QUERY getAccount
SELECT * FROM accounts WHERE id = ?id LIMIT 1
`))
	must(cluster.ApplyConsistency(`
namespace accounts {
  write: serializable;
  staleness: 10s;
  durability: 99.999%;
  priority: read-consistency > availability;
}
`))

	for i := 0; i < 30; i++ {
		must(cluster.Insert("accounts", scads.Row{
			"id":      fmt.Sprintf("acct%04d", i),
			"owner":   fmt.Sprintf("Owner %d", i),
			"balance": 100 * i,
		}))
	}
	must(cluster.FlushAll())
	fmt.Println("seeded 30 accounts across 3 nodes (RF=2)")

	// --- 1. Crash and recovery -------------------------------------
	ns := planner.TableNamespace("accounts")
	m, _ := cluster.Router().Map(ns)
	victim := m.Ranges()[0].Replicas[0]
	cluster.CrashNode(victim)
	fmt.Printf("\ncrashed %s (a primary); reads fail over to surviving replicas:\n", victim)
	r, _, err := cluster.Get("accounts", scads.Row{"id": "acct0007"})
	must(err)
	fmt.Printf("  acct0007 -> owner=%q balance=%v\n", r["owner"], r["balance"])
	cluster.RecoverNode(victim)
	fmt.Printf("recovered %s\n", victim)

	// --- 2. Decommission before scale-down --------------------------
	survivors := slices.DeleteFunc(cluster.Directory().Up(), func(id string) bool { return id == victim })
	must(cluster.DecommissionNode(victim, survivors))
	fmt.Printf("\ndecommissioned %s: its ranges re-replicated onto survivors;\n", victim)
	r, _, err = cluster.Get("accounts", scads.Row{"id": "acct0007"})
	must(err)
	fmt.Printf("  acct0007 still readable -> balance=%v\n", r["balance"])

	// --- 3. Workload-driven repartitioning --------------------------
	for i := 0; i < 200; i++ {
		for j := 0; j < 5; j++ {
			cluster.Get("accounts", scads.Row{"id": fmt.Sprintf("acct%04d", j)})
		}
	}
	plan, err := cluster.Rebalance(scads.BalanceConfig{})
	must(err)
	fmt.Printf("\nskewed window tracked; rebalance plan executed (%d actions):\n", len(plan))
	for _, a := range plan {
		fmt.Printf("  %s\n", a)
	}

	// --- 4. The observe edge of Figure 2 ----------------------------
	obs := cluster.Observe(time.Second)
	fmt.Printf("\nobservation for the director: rate=%.1f req/s p%v latency=%v success=%.2f%% met=%v\n",
		obs.Rate, 99.9, obs.Latency.Round(time.Microsecond), obs.SuccessRate, obs.SLAMet)
	fmt.Printf("replication at risk: %d, contentions: %d\n",
		obs.ReplicationAtRisk, obs.Contentions)
	fmt.Println("\n(the director feeds this into its capacity model + forecast, and")
	fmt.Println("scads.RunElasticScenario resizes a real cluster to its fleet every")
	fmt.Println("tick — experiment e16)")
}
