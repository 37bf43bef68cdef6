package main

import (
	"fmt"
	"sort"

	"scads"
	"scads/internal/balancer"
	"scads/internal/expgrid"
	"scads/internal/planner"
)

// runE11 exercises the workload-driven repartitioning of §3.3.1
// ("current workload information will be used to automatically
// configure system parameters such as partitioning"): a skewed
// social workload concentrates on one primary; successive rebalance
// rounds split the hot range at the tracker's median observed key and
// move ranges until primaries spread across the cluster. The ablation
// reruns it with splitting disabled: moves alone cannot spread one
// range's load, so the hotspot keeps its single primary.
func runE11(expgrid.Params) (expgrid.Metrics, error) {
	ranges, primaries, actions := e11Rebalance(scads.BalanceConfig{})
	fmt.Println("\nthe hot range is split at the tracker's median observed key, then")
	fmt.Println("whole ranges move until no node exceeds 1.5x the mean load — all 200")
	fmt.Println("rows stay readable throughout (verified by the test suite).")
	fmt.Println("\nablation, splitting disabled:")
	nsRanges, nsPrimaries, _ := e11Rebalance(scads.BalanceConfig{SplitFraction: 1e9})
	return expgrid.Metrics{
		"final_ranges":          float64(ranges),
		"primary_nodes":         float64(primaries),
		"plan_actions":          float64(actions),
		"nosplit_final_ranges":  float64(nsRanges),
		"nosplit_primary_nodes": float64(nsPrimaries),
	}, nil
}

// e11Rebalance loads 200 users on a 4-node cluster, then runs three
// rounds of (skewed reads, Rebalance), printing the layout after each.
func e11Rebalance(cfg scads.BalanceConfig) (ranges, primaryNodes, actions int) {
	lc, err := scads.NewLocalCluster(4, scads.Config{})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))

	for i := 0; i < 200; i++ {
		must(lc.Insert("users", scads.Row{
			"id":       fmt.Sprintf("user%04d", i),
			"name":     fmt.Sprintf("User %d", i),
			"birthday": i%365 + 1,
		}))
	}

	ns := planner.TableNamespace("users")
	skew := func() {
		// 80% of traffic on 10% of the keyspace.
		for i := 0; i < 400; i++ {
			for j := 0; j < 4; j++ {
				lc.Get("users", scads.Row{"id": fmt.Sprintf("user%04d", j*5)})
			}
			lc.Get("users", scads.Row{"id": fmt.Sprintf("user%04d", i%200)})
		}
	}
	layout := func() (ranges int, primaries map[string]int) {
		m, _ := lc.Router().Map(ns)
		primaries = map[string]int{}
		for _, rng := range m.Ranges() {
			primaries[rng.Replicas[0]]++
		}
		return m.Len(), primaries
	}

	fmt.Printf("%-8s %8s %10s %8s %8s\n", "round", "ranges", "primaries", "splits", "moves")
	r0, p0 := layout()
	fmt.Printf("%-8s %8d %10d %8s %8s\n", "start", r0, len(p0), "-", "-")
	for round := 1; round <= 3; round++ {
		skew()
		plan, err := lc.Rebalance(cfg)
		must(err)
		splits, moves := 0, 0
		for _, a := range plan {
			switch a.Kind {
			case balancer.ActionSplit:
				splits++
			case balancer.ActionMove:
				moves++
			}
		}
		actions += len(plan)
		r, p := layout()
		fmt.Printf("round-%d  %8d %10d %8d %8d\n", round, r, len(p), splits, moves)
	}

	ranges, p := layout()
	nodes := make([]string, 0, len(p))
	for node := range p {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	fmt.Println("\nprimary ranges per node after rebalancing:")
	for _, node := range nodes {
		fmt.Printf("  %-10s %d\n", node, p[node])
	}
	return ranges, len(p), actions
}
