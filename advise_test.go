package scads

import (
	"strings"
	"testing"

	"scads/internal/analyzer"
)

func adviceWorkload() AdviceWorkload {
	return AdviceWorkload{
		QueryRates: map[string]float64{
			"findUser": 500, "friends": 300, "friendsWithUpcomingBirthdays": 200,
		},
		UpdateRates: map[string]float64{"users": 20, "friendships": 10},
		TableRows:   map[string]int{"users": 100_000, "friendships": 2_000_000},
	}
}

func adviceConfig() AdviceConfig {
	return AdviceConfig{
		Capacity: CapacityCurve{Capacity: 400, Base: 0.002, K: 0.040},
	}
}

func TestClusterAdvise(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 2)
	rep, err := lc.Advise(adviceWorkload(), adviceConfig())
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if len(rep.Queries) != 3 {
		t.Fatalf("want 3 query advices, got %d", len(rep.Queries))
	}
	for _, q := range rep.Queries {
		if !q.Accepted {
			t.Errorf("%s rejected: %s", q.Query, q.Reason)
		}
	}
	// Advise inherits the cluster's replication factor when the config
	// does not override it.
	if rep.Cluster.ReplicationFactor != 2 {
		t.Errorf("ReplicationFactor = %d, want cluster's 2", rep.Cluster.ReplicationFactor)
	}
	if len(rep.Curve) == 0 {
		t.Fatal("no downtime/cost curve")
	}
}

func TestClusterAdviseNoSchema(t *testing.T) {
	vcfg := Config{}
	lc, err := NewLocalCluster(1, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Advise(adviceWorkload(), adviceConfig()); err != ErrNoSchema {
		t.Fatalf("err = %v, want ErrNoSchema", err)
	}
}

func TestAdviseDDLMixedAcceptance(t *testing.T) {
	// One bounded query and one Twitter-shaped rejection in the same
	// program: AdviseDDL reports both instead of failing.
	ddl := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY follows (
    follower string,
    followee string,
    PRIMARY KEY (follower, followee),
    CARDINALITY follower 5000
)
QUERY getUser
SELECT * FROM users WHERE id = ?u LIMIT 1

QUERY followersOf
SELECT u.* FROM follows f JOIN users u ON f.follower = u.id
WHERE f.followee = ?u LIMIT 100
`
	rep, err := AdviseDDL(ddl, analyzer.Config{}, AdviceWorkload{
		QueryRates:  map[string]float64{"getUser": 100},
		UpdateRates: map[string]float64{"users": 5},
		TableRows:   map[string]int{"users": 10_000, "follows": 1_000_000},
	}, adviceConfig())
	if err != nil {
		t.Fatalf("AdviseDDL: %v", err)
	}
	var accepted, rejected int
	for _, q := range rep.Queries {
		if q.Accepted {
			accepted++
		} else {
			rejected++
			if !strings.Contains(q.Reason, "CARDINALITY") {
				t.Errorf("rejection reason should name the missing bound: %q", q.Reason)
			}
		}
	}
	if accepted != 1 || rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 1/1", accepted, rejected)
	}
}

func TestAdviseDDLParseError(t *testing.T) {
	if _, err := AdviseDDL("ENTITY (", analyzer.Config{}, AdviceWorkload{}, adviceConfig()); err == nil {
		t.Fatal("want parse error")
	}
}

func TestAdviseReportFormats(t *testing.T) {
	lc, _ := newSocialCluster(t, 3, 2)
	rep, err := lc.Advise(adviceWorkload(), adviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Format()
	if !strings.Contains(text, "CLUSTER SIZING") || !strings.Contains(text, "replicas") {
		t.Errorf("unexpected report:\n%s", text)
	}
}
