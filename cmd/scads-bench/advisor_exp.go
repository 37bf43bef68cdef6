package main

import (
	"fmt"
	"time"

	"scads"
	"scads/internal/advisor"
	"scads/internal/analyzer"
	"scads/internal/expgrid"
)

// runE9 regenerates the §2.2/§3.3.1 guidance flow: the developer
// submits query templates with a workload estimate and, before
// anything is deployed, the system reports per-query cost, index
// storage, cluster sizing with a monthly bill, and the expected
// downtime-vs-cost curve — including the rejection reasons for
// templates that are not scale-independent.
func runE9(expgrid.Params) (expgrid.Metrics, error) {
	ddl := `
ENTITY profiles (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
ENTITY follows (
    follower string,
    followee string,
    PRIMARY KEY (follower, followee),
    CARDINALITY follower 5000
)
QUERY getProfile
SELECT * FROM profiles WHERE id = ?user LIMIT 1

QUERY friendBirthdays
SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50

QUERY followersOf
SELECT p.* FROM follows f JOIN profiles p ON f.follower = p.id
WHERE f.followee = ?user LIMIT 100
`
	w := scads.AdviceWorkload{
		QueryRates: map[string]float64{
			"getProfile": 4000, "friendBirthdays": 1000, "followersOf": 500,
		},
		UpdateRates: map[string]float64{"profiles": 80, "friendships": 40, "follows": 40},
		TableRows: map[string]int{
			"profiles": 1_000_000, "friendships": 20_000_000, "follows": 30_000_000,
		},
	}
	cfg := scads.AdviceConfig{
		Capacity:          paperService().Curve(),
		SLALatency:        100 * time.Millisecond,
		ReplicationFactor: 2,
	}
	rep, err := scads.AdviseDDL(ddl, analyzer.Config{}, w, cfg)
	must(err)
	fmt.Println("pre-deployment guidance (three templates, one Twitter-shaped):")
	fmt.Println()
	fmt.Print(rep.Format())

	// The durability clause of the consistency DSL picks off this
	// curve: show the choice for two example requirements.
	for _, target := range []float64{0.999, 0.99999} {
		if p, ok := advisor.PickReplicas(rep.Curve, target, target); ok {
			fmt.Printf("\nrequirement %.3f%% availability+durability -> %d replicas, $%.2f/month",
				target*100, p.Replicas, p.MonthlyUSD)
		} else {
			fmt.Printf("\nrequirement %.3f%% availability+durability -> infeasible within explored replication",
				target*100)
		}
	}
	fmt.Println()
	return expgrid.Metrics{
		"servers":                    float64(rep.Cluster.Servers),
		"write_amplification_x":      rep.Cluster.WriteAmplification,
		"storage_gib":                float64(rep.Cluster.StorageBytes) / (1 << 30),
		"monthly_usd":                rep.Cluster.MonthlyTotalUSD,
		"rf2_downtime_min_per_month": rep.Curve[1].DowntimeMinutesPerMonth,
	}, nil
}
