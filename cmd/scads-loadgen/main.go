// Command scads-loadgen drives a cluster of scads-server nodes with
// the CloudStone-style social workload: it declares the paper's §3.2
// schema, seeds a bounded-degree social graph, then issues the
// read-heavy request mix at a target rate, reporting SLA compliance.
//
// Usage:
//
//	scads-loadgen -nodes 127.0.0.1:7070,127.0.0.1:7071 \
//	    -users 10000 -rate 500 -duration 60s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof debug endpoint
	"strings"
	"time"

	"scads"
	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/rpc"
	"scads/internal/workload"
)

const socialDDL = `
ENTITY users (
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
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
QUERY friends
SELECT * FROM friendships WHERE f1 = ?user LIMIT 5000
QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`

func main() {
	var (
		nodes     = flag.String("nodes", "127.0.0.1:7070", "comma-separated storage node addresses")
		users     = flag.Int("users", 1000, "seed users")
		friends   = flag.Int("friends", 10, "average friends per user")
		rate      = flag.Float64("rate", 200, "target requests/second")
		duration  = flag.Duration("duration", 30*time.Second, "run length")
		rf        = flag.Int("rf", 1, "replication factor")
		writes    = flag.Bool("write-heavy", false, "use the write-heavy (spike) mix")
		seed      = flag.Int64("seed", 42, "workload seed")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty disables)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("scads-loadgen: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("scads-loadgen: pprof: %v", err)
			}
		}()
	}

	clk := clock.NewReal()
	dir := cluster.NewDirectory(clk)
	transport := rpc.NewTCPTransport()
	defer transport.Close()

	addrs := strings.Split(*nodes, ",")
	for i, addr := range addrs {
		id := fmt.Sprintf("node-%d", i+1)
		// Verify reachability before registering.
		resp, err := transport.Call(addr, rpc.Request{Method: rpc.MethodPing})
		if err != nil {
			log.Fatalf("scads-loadgen: node %s unreachable: %v", addr, err)
		}
		log.Printf("connected to %s (%s)", addr, resp.Value)
		dir.Join(id, addr)
		dir.MarkUp(id)
	}

	c, err := scads.Open(scads.Config{
		Clock:             clk,
		Transport:         transport,
		Directory:         dir,
		ReplicationFactor: *rf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if err := c.DefineSchema(socialDDL); err != nil {
		log.Fatal(err)
	}
	// Background replication and index maintenance.
	c.StartBackground(2)

	mix := workload.ReadHeavyMix
	if *writes {
		mix = workload.WriteHeavyMix
	}
	gen := workload.NewSocial(*seed, *users, 5000, mix)

	log.Printf("seeding %d users, ~%d friends each...", *users, *friends)
	for i := 0; i < *users; i++ {
		if err := c.Insert("users", gen.ProfileRow(i)); err != nil {
			log.Fatalf("seed user %d: %v", i, err)
		}
	}
	for _, e := range gen.SeedGraph(*friends) {
		if err := c.Insert("friendships", scads.Row{"f1": e[0], "f2": e[1]}); err != nil {
			log.Fatalf("seed edge: %v", err)
		}
	}
	log.Printf("seeded; running %v at %.0f req/s", *duration, *rate)

	interval := time.Duration(float64(time.Second) / *rate)
	deadline := time.Now().Add(*duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	report := time.NewTicker(5 * time.Second)
	defer report.Stop()

	var ops int64
	for time.Now().Before(deadline) {
		select {
		case <-ticker.C:
			issue(c, gen.Next())
			ops++
		case <-report.C:
			iv := c.Monitor().Roll()
			log.Printf("%s", iv)
		}
	}
	iv := c.Monitor().Roll()
	sum := c.Monitor().Summary()
	fmt.Printf("\nfinal: ops=%d last-interval=%s total-requests=%d failures=%d\n",
		ops, iv, sum.TotalRequests, sum.TotalFailures)
	st := c.Stats()
	fmt.Printf("replication: delivered=%d violations=%d pending=%d; maintenance pending=%d\n",
		st.Replication.Delivered, st.Replication.Violations, st.Replication.Pending, st.Maintenance)
}

func issue(c *scads.Cluster, op workload.Op) {
	var err error
	switch op.Kind {
	case workload.OpViewProfile:
		_, err = c.Query("findUser", map[string]any{"user": op.UserID})
	case workload.OpViewFriends:
		_, err = c.Query("friends", map[string]any{"user": op.UserID})
	case workload.OpViewBirthdays:
		_, err = c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": op.UserID})
	case workload.OpAddFriend:
		err = c.Insert("friendships", scads.Row{"f1": op.UserID, "f2": op.Friend})
	case workload.OpRemoveFriend:
		err = c.Delete("friendships", scads.Row{"f1": op.UserID, "f2": op.Friend})
	case workload.OpUpdateProfile, workload.OpNewUser:
		err = c.Insert("users", op.Row)
	}
	if err != nil {
		log.Printf("op %v: %v", op.Kind, err)
	}
}
