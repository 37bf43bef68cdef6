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
	// Measured 11: the server serves the get on its read loop, so no
	// handler closure and no heap copy of the request.
	if allocs := testing.AllocsPerRun(200, get); allocs > 12 {
		t.Errorf("warm Cluster.Get over TCP allocates %.1f times per call, want <= 12", allocs)
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
	// Measured 14.
	if allocs := testing.AllocsPerRun(200, insert); allocs > 16 {
		t.Errorf("Cluster.Insert over TCP allocates %.1f times per call, want <= 16", allocs)
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
	// Measured 20.
	if allocs := testing.AllocsPerRun(200, insert); allocs > 22 {
		t.Errorf("replicated Cluster.Insert over TCP allocates %.1f times per call, want <= 22", allocs)
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
	// Measured 21; 24 when the old row was a get of its own before the
	// apply.
	if allocs := testing.AllocsPerRun(200, insert); allocs > 24 {
		t.Errorf("maintained Cluster.Insert over TCP allocates %.1f times per call, want <= 24", allocs)
	}
}

// TestQueryAllocsOverTCP pins what each of the paper's three queries
// allocates end to end over a TCP node, on the social schema with one
// user who has ten friends: a primary-key get (findUser), a base-table
// scan (friends) and a join-view scan (friendsWithUpcomingBirthdays).
// Each is pinned at its measured count. The trailing comments give the
// counts when a whole-row SELECT still carried a projection, the
// coordinator narrowed scanned rows again and a scan copied each record
// in two allocations of its own.
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
		{"findUser", 1, 13},                      // was 18
		{"friends", 10, 78},                      // was 184
		{"friendsWithUpcomingBirthdays", 10, 78}, // was 99
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
