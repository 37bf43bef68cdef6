// Advisor: the pre-deployment guidance flow of §2.2/§3.3.1. A
// developer submits query templates plus a workload estimate and the
// system reports — before anything runs — which templates are
// scale-independent, what the accepted ones cost to serve and
// maintain, how many servers the SLA needs, the monthly bill, and the
// expected-downtime-vs-cost curve that helps pick a replication
// policy. A Twitter-shaped template is included to show rejection
// with its reason.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"
	"time"

	"scads"
	"scads/internal/advisor"
	"scads/internal/analyzer"
)

func main() {
	const ddl = `
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

	// The developer's demand estimate: a million users, read-heavy.
	workload := scads.AdviceWorkload{
		QueryRates: map[string]float64{
			"getProfile":      4000,
			"friendBirthdays": 1000,
			"followersOf":     500,
		},
		UpdateRates: map[string]float64{
			"profiles": 80, "friendships": 40, "follows": 40,
		},
		TableRows: map[string]int{
			"profiles": 1_000_000, "friendships": 20_000_000, "follows": 30_000_000,
		},
	}

	cfg := scads.AdviceConfig{
		// Day one: no fitted model yet, so a closed-form curve stands in
		// (1000 req/s per server, 5ms idle, 30ms queueing scale). Once
		// the cluster runs, the curve the director's CapacityModel fits
		// takes its place.
		Capacity:          scads.CapacityCurve{Capacity: 1000, Base: 0.005, K: 0.030},
		SLALatency:        100 * time.Millisecond,
		ReplicationFactor: 2,
		Pricing: scads.AdvicePricing{
			PricePerHour:      0.10, // 2008 EC2 m1.small
			StoragePerGBMonth: 0.15, // 2008 S3
		},
	}

	report, err := scads.AdviseDDL(ddl, analyzer.Config{}, workload, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Format())

	// The durability clause of a consistency spec ("durability:
	// 99.999%") picks off this curve automatically; here the developer
	// explores two candidate requirements by hand.
	fmt.Println()
	for _, target := range []float64{0.999, 0.99999} {
		p, ok := advisor.PickReplicas(report.Curve, target, target)
		if !ok {
			fmt.Printf("%.3f%% availability+durability: infeasible within explored replication\n",
				target*100)
			continue
		}
		fmt.Printf("%.3f%% availability+durability -> %d replicas at $%.2f/month\n",
			target*100, p.Replicas, p.MonthlyUSD)
	}
}
