package scads_test

import (
	"fmt"
	"log"

	"scads"
	"scads/internal/analyzer"
)

// Example shows the minimal end-to-end flow: declare a schema and a
// consistency spec, write rows, and run a declared query.
func Example() {
	cluster, err := scads.NewLocalCluster(3, scads.Config{ReplicationFactor: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	if err := cluster.DefineSchema(`
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
`); err != nil {
		log.Fatal(err)
	}
	if err := cluster.ApplyConsistency(`
namespace users {
  write: last-write-wins;
  staleness: 30s;
}
`); err != nil {
		log.Fatal(err)
	}

	if err := cluster.Insert("users", scads.Row{"id": "bob", "name": "Bob", "birthday": 42}); err != nil {
		log.Fatal(err)
	}
	if err := cluster.FlushAll(); err != nil { // drain async replication
		log.Fatal(err)
	}

	rows, err := cluster.Query("findUser", map[string]any{"user": "bob"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rows[0]["name"], rows[0]["birthday"])
	// Output: Bob 42
}

// ExampleCluster_DefineSchema shows the analyzer rejecting a query
// whose maintenance work is unbounded — the paper's Twitter case.
func ExampleCluster_DefineSchema() {
	cluster, err := scads.NewLocalCluster(1, scads.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	err = cluster.DefineSchema(`
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY follows ( follower string, followee string, PRIMARY KEY (follower, followee) )
QUERY followersOf
SELECT u.* FROM follows f JOIN users u ON f.follower = u.id
WHERE f.followee = ?user LIMIT 100
`)
	fmt.Println(err != nil)
	// Output: true
}

// ExampleCluster_GetSession shows read-your-writes: the session always
// observes its own write even while replication is still in flight.
func ExampleCluster_GetSession() {
	cluster, err := scads.NewLocalCluster(2, scads.Config{ReplicationFactor: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.DefineSchema(`
ENTITY walls ( owner string PRIMARY KEY, post string )
QUERY wall SELECT * FROM walls WHERE owner = ?owner LIMIT 1
`); err != nil {
		log.Fatal(err)
	}
	if err := cluster.ApplyConsistency(`
namespace walls { session: read-your-writes; }
`); err != nil {
		log.Fatal(err)
	}

	sess := cluster.NewSession("walls")
	if err := cluster.InsertSession("walls", scads.Row{"owner": "alice", "post": "hi!"}, sess); err != nil {
		log.Fatal(err)
	}
	// No FlushAll: one replica is still stale, but the session's floor
	// forces the read onto a replica that has the write.
	r, found, err := cluster.GetSession("walls", scads.Row{"owner": "alice"}, sess)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(found, r["post"])
	// Output: true hi!
}

// ExampleAdviseDDL shows the pre-deployment guidance flow of
// §2.2/§3.3.1: templates plus a workload estimate go in, and the
// report says what is scale-independent and what it will cost.
func ExampleAdviseDDL() {
	report, err := scads.AdviseDDL(`
ENTITY users ( id string PRIMARY KEY, name string )
QUERY getUser
SELECT * FROM users WHERE id = ?u LIMIT 1
`, analyzer.Config{}, scads.AdviceWorkload{
		QueryRates:  map[string]float64{"getUser": 1000},
		UpdateRates: map[string]float64{"users": 10},
		TableRows:   map[string]int{"users": 100_000},
	}, scads.AdviceConfig{
		Capacity: scads.CapacityCurve{Capacity: 1000, Base: 0.005, K: 0.030},
	})
	if err != nil {
		panic(err)
	}
	q := report.Queries[0]
	fmt.Printf("%s: accepted=%v shape=%s servers-touched=%d\n",
		q.Query, q.Accepted, q.Shape, q.ServersTouched)
	fmt.Printf("replication choices explored: %d\n", len(report.Curve))
	// Output:
	// getUser: accepted=true shape=pk-lookup servers-touched=1
	// replication choices explored: 5
}

// ExampleCluster_Rebalance shows workload-driven repartitioning: the
// coordinator tracks where requests land and Rebalance splits/moves
// ranges accordingly.
func ExampleCluster_Rebalance() {
	lc, err := scads.NewLocalCluster(2, scads.Config{})
	if err != nil {
		panic(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(`
ENTITY items ( id string PRIMARY KEY, name string )
QUERY getItem
SELECT * FROM items WHERE id = ?id LIMIT 1
`); err != nil {
		panic(err)
	}
	for i := 0; i < 50; i++ {
		lc.Insert("items", scads.Row{"id": fmt.Sprintf("item%03d", i), "name": "x"})
	}
	for i := 0; i < 300; i++ {
		lc.Get("items", scads.Row{"id": fmt.Sprintf("item%03d", i%50)})
	}
	plan, err := lc.Rebalance(scads.BalanceConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("actions executed: %d\n", len(plan))
	// Output:
	// actions executed: 1
}
