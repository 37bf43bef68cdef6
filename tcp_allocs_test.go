//go:build !race

package scads

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled frame buffers and result channels of the call path allocate
// and the count below does not hold; the pin runs in the plain build.

import (
	"fmt"
	"strings"
	"testing"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// ledgerUsersDDL is the ledger's five-column users table, from which
// nothing is derived.
const ledgerUsersDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int,
    bio string,
    counter int
)
`

// openOverTCP opens a Cluster over nodes in-memory nodes, each behind a
// real TCP server — both sides of every socket in this process — with
// the schema ddl, replicated on all of them.
func openOverTCP(t *testing.T, nodes int, ddl string) *Cluster {
	t.Helper()
	clk := clock.NewReal()
	dir := cluster.NewDirectory(clk)
	for i := 1; i <= nodes; i++ {
		engine, err := storage.Open(storage.Options{NodeID: uint16(i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.Close() })
		id := fmt.Sprintf("tcp-node-%d", i)
		srv := rpc.NewServer(cluster.NewNode(id, engine))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		dir.Join(id, addr)
		dir.MarkUp(id)
	}
	transport := rpc.NewTCPTransport()
	t.Cleanup(func() { transport.Close() })
	c, err := Open(Config{Clock: clk, Transport: transport, Directory: dir, ReplicationFactor: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.DefineSchema(ddl); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmGetAllocsOverTCP pins what one hot point read allocates end
// to end — coordinator, transport, server dispatch and the node's
// memtable read, both sides of the socket being in this process — on the
// ledger's five-column users row. testing.AllocsPerRun runs under
// GOMAXPROCS(1), which makes the count deterministic.
func TestWarmGetAllocsOverTCP(t *testing.T) {
	c := openOverTCP(t, 1, ledgerUsersDDL)
	if err := c.Insert("users", Row{
		"id": "user000001", "name": "User One", "birthday": 42,
		"bio": strings.Repeat("b", 150), "counter": 7,
	}); err != nil {
		t.Fatal(err)
	}
	pk := Row{"id": "user000001"}
	get := func() {
		r, found, err := c.Get("users", pk)
		if err != nil || !found || r["counter"] != int64(7) {
			t.Fatalf("warm get = %v, %v, %v", r, found, err)
		}
	}
	get() // dial
	// Measured 7: the client's response arena and row.Decode's six (its
	// payload copy, map and boxed values). The server serves the get on
	// its read loop with the request borrowed from its read buffer, the
	// key is built in a pooled buffer and admission takes no closure
	// (11 with all three).
	if allocs := testing.AllocsPerRun(200, get); allocs > 8 {
		t.Errorf("warm Cluster.Get over TCP allocates %.1f times per call, want <= 8", allocs)
	}
}

// TestInsertAllocsOverTCP pins what one last-write-wins insert into a
// table nothing is derived from allocates end to end: one apply, no old
// image, no maintenance task — so the solo commit path cannot quietly
// grow a map or a goroutine.
func TestInsertAllocsOverTCP(t *testing.T) {
	c := openOverTCP(t, 1, ledgerUsersDDL)
	r := Row{
		"id": "user000001", "name": "User One", "birthday": 42,
		"bio": strings.Repeat("b", 150), "counter": 7,
	}
	insert := func() {
		if err := c.Insert("users", r); err != nil {
			t.Fatal(err)
		}
	}
	insert() // dial
	// Measured 3: the staged record's one buffer, and the server's arena
	// and records slice for the detached apply. 11 when the row was
	// normalized into a map of its own, encoded with an escaping names
	// slice, committed in a one-record slice of its own and served on a
	// goroutine per request, with the client's response buffer; 13 when
	// admission's release was a closure.
	if allocs := testing.AllocsPerRun(200, insert); allocs > 3 {
		t.Errorf("Cluster.Insert over TCP allocates %.1f times per call, want <= 3", allocs)
	}
}

// TestReplicatedInsertAllocsOverTCP pins the same insert at RF=2
// together with its background half: the update's trip through the
// replication queue and the apply that carries it to the secondary.
func TestReplicatedInsertAllocsOverTCP(t *testing.T) {
	c := openOverTCP(t, 2, ledgerUsersDDL)
	r := Row{
		"id": "user000001", "name": "User One", "birthday": 42,
		"bio": strings.Repeat("b", 150), "counter": 7,
	}
	insert := func() {
		if err := c.Insert("users", r); err != nil {
			t.Fatal(err)
		}
		if n := c.Pump().Drain(16); n != 1 {
			t.Fatalf("replication drained %d records, want 1", n)
		}
	}
	insert() // dial both nodes
	// Measured 5: the insert's 3 and the secondary's apply, detached
	// like the primary's. 7 when each Drain allocated its round's
	// scratch; 18 before writes were staged into one buffer and served
	// by standing workers; 20 when admission's release was a closure.
	if allocs := testing.AllocsPerRun(200, insert); allocs > 5 {
		t.Errorf("replicated Cluster.Insert over TCP allocates %.1f times per call, want <= 5", allocs)
	}
}

// TestMaintainedInsertAllocsOverTCP pins the same insert into the social
// schema's users table, from which the join view is derived: one swap,
// which answers the displaced row index maintenance needs, and the
// maintenance task it queues. The swapping node copies the displaced
// value into its memory of recent swaps, never the key.
func TestMaintainedInsertAllocsOverTCP(t *testing.T) {
	c := openOverTCP(t, 1, socialDDL)
	r := Row{"id": "user000001", "name": "User One", "birthday": 42}
	insert := func() {
		if err := c.Insert("users", r); err != nil {
			t.Fatal(err)
		}
	}
	insert() // dial
	// Measured 8; 15 before writes were staged into one buffer, served
	// by standing workers and answered in an arena of the displaced
	// value's size; 17 when admission's release was a closure, 18 when
	// the upkeep queue also boxed each task, 24 when the old row was a
	// get of its own before the apply.
	if allocs := testing.AllocsPerRun(200, insert); allocs > 8 {
		t.Errorf("maintained Cluster.Insert over TCP allocates %.1f times per call, want <= 8", allocs)
	}
}

// TestUpkeepRoundAllocs pins a maintained users insert together with
// the upkeep round that follows it: the round reads the user's current
// row from its primary, finds the user's friends through the reverse
// index and moves each friend's join-view entry to the new birthday.
// With one friend the pin is the whole count; with ten, social_mix's
// mean degree, it is what the nine more drivers add, which stays under
// one allocation each: a driver's row is read in place and its entries
// appended into the round's buffers.
func TestUpkeepRoundAllocs(t *testing.T) {
	// Measured 21: the insert's 8 and the round's 13. 45 (a round of 37)
	// when the round decoded each row it touched into a map and built a
	// fresh round and mutation set; 59 when each entry went through a map
	// of its source rows and a row map of its value, encoded apart; 65
	// when the round's read of the user's row grouped its one key by node
	// in a map and sent it from a goroutine; 71 when keys were also
	// escaped byte by byte into buffers grown on the way.
	one := upkeepRoundAllocs(t, 1)
	if one > 21 {
		t.Errorf("maintained insert + upkeep round over TCP allocates %.1f times per call, want <= 21", one)
	}
	// Measured 22, 1 more than one friend's; 106, 61 more, when each
	// driver was decoded into a map and the index of a mutation set past
	// 16 entries built a string per lookup.
	ten := upkeepRoundAllocs(t, 10)
	if ten-one > 1 {
		t.Errorf("a round of ten friends allocates %.1f times, %.1f more than one friend's; want <= 1 more", ten, ten-one)
	}
}

// upkeepRoundAllocs measures one users insert and its upkeep round over
// TCP when the user has the given number of friends.
func upkeepRoundAllocs(t *testing.T, friends int) float64 {
	t.Helper()
	c := openOverTCP(t, 1, socialDDL)
	for i := range friends {
		if err := c.Insert("friendships", Row{"f1": fmt.Sprintf("user%06d", i+2), "f2": "user000001"}); err != nil {
			t.Fatal(err)
		}
	}
	birthday := int64(1)
	round := func() {
		birthday = 3 - birthday // 1, 2, 1, ...: every round moves the entries
		if err := c.Insert("users", Row{"id": "user000001", "name": "User One", "birthday": birthday}); err != nil {
			t.Fatal(err)
		}
		if n, err := c.DrainMaintenance(256); n != 1 || err != nil {
			t.Fatalf("DrainMaintenance = %d, %v; want 1 task", n, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	round() // dial
	return testing.AllocsPerRun(200, round)
}

// TestUpkeepQueueAllocs pins the upkeep queue's own cost: pushing a
// task, popping it into a round and settling the round allocate only
// the slice of tasks popN returns.
func TestUpkeepQueueAllocs(t *testing.T) {
	var q maintQueue
	task := maintTask{table: "users", ns: "tbl.users", key: []byte("k")}
	cycle := func() {
		q.push(task, t0)
		if len(q.popN(1)) != 1 {
			t.Fatal("popN(1) took no task")
		}
		q.settle(1, nil)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 1 {
		t.Errorf("push + popN(1) + settle allocates %.1f times per task, want <= 1", allocs)
	}
}

// TestEmptyDrainAllocs pins a maintenance round over an empty queue,
// which the background drainer runs every 2 ms, at no allocation.
func TestEmptyDrainAllocs(t *testing.T) {
	c := openOverTCP(t, 1, socialDDL)
	drain := func() {
		if n, err := c.DrainMaintenance(256); n != 0 || err != nil {
			t.Fatalf("DrainMaintenance on an empty queue = %d, %v", n, err)
		}
	}
	if allocs := testing.AllocsPerRun(200, drain); allocs != 0 {
		t.Errorf("an empty DrainMaintenance allocates %.1f times per call, want 0", allocs)
	}
}

// TestQueryAllocsOverTCP pins what each of the paper's three queries
// allocates end to end over a TCP node, on the social schema with one
// user who has ten friends: a primary-key get (findUser), a base-table
// scan (friends) and a join-view scan (friendsWithUpcomingBirthdays).
// findUser is pinned at its measured count (8), the two scans 8 above
// theirs (41 and 50). The trailing comments give the earlier pins:
// before a query's rows were decoded as one result (row.DecodeAll) and
// its parameters were no longer copied into a map of their own; before
// admission took no closure, the point read's key was pooled and a node
// scan sized its record slice once; and before that, when a whole-row
// SELECT still carried a projection, the coordinator narrowed scanned
// rows again and a scan copied each record in two allocations of its
// own.
func TestQueryAllocsOverTCP(t *testing.T) {
	c := openOverTCP(t, 1, socialDDL)
	for i := 0; i <= 10; i++ {
		if err := c.Insert("users", Row{"id": fmt.Sprintf("user%03d", i), "name": fmt.Sprintf("U%d", i), "birthday": i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		if err := c.Insert("friendships", Row{"f1": "user000", "f2": fmt.Sprintf("user%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	params := map[string]any{"user": "user000"}
	for _, q := range []struct {
		name  string
		rows  int
		limit float64
	}{
		{"findUser", 1, 8},                       // was 10, 13, 18
		{"friends", 10, 49},                      // was 72, 78, 184
		{"friendsWithUpcomingBirthdays", 10, 58}, // was 72, 78, 99
	} {
		run := func() {
			rows, err := c.Query(q.name, params)
			if err != nil || len(rows) != q.rows {
				t.Fatalf("%s = %d rows, %v; want %d", q.name, len(rows), err, q.rows)
			}
		}
		run() // dial, warm the caches
		if allocs := testing.AllocsPerRun(200, run); allocs > q.limit {
			t.Errorf("%s over TCP allocates %.1f times per call, want <= %.0f", q.name, allocs, q.limit)
		}
	}
}
