package scads

// End-to-end test over real TCP sockets: the same coordinator code
// that serves the in-process tests drives storage nodes (one of them
// disk-backed) listening on localhost, exactly as the scads-server /
// scads-loadgen binaries deploy it.

import (
	"fmt"
	"testing"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/rpc"
	"scads/internal/storage"
)

func TestEndToEndOverTCP(t *testing.T) {
	clk := clock.NewReal()

	// Three nodes: two in-memory, one disk-backed (WAL + SSTables).
	var servers []*rpc.Server
	dir := cluster.NewDirectory(clk)
	for i := 0; i < 3; i++ {
		opts := storage.Options{NodeID: uint16(i + 1), MemtableBytes: 32 << 10}
		if i == 0 {
			opts.Dir = t.TempDir()
		}
		engine, err := storage.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		id := fmt.Sprintf("tcp-node-%d", i+1)
		srv := rpc.NewServer(cluster.NewNode(id, engine))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		defer srv.Close()
		dir.Join(id, addr)
		dir.MarkUp(id)
	}

	transport := rpc.NewTCPTransport()
	defer transport.Close()
	c, err := Open(Config{
		Clock:             clk,
		Transport:         transport,
		Directory:         dir,
		ReplicationFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyConsistency(`
namespace users { session: read-your-writes; staleness: 10m; }
`); err != nil {
		t.Fatal(err)
	}

	// Writes, queries, and the join view — all over real sockets.
	for i := 0; i < 50; i++ {
		if err := c.Insert("users", Row{
			"id": fmt.Sprintf("user%03d", i), "name": fmt.Sprintf("U%d", i), "birthday": i%365 + 1,
		}); err != nil {
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

	rows, err := c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "user000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("birthday view over TCP = %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1]["birthday"].(int64) > rows[i]["birthday"].(int64) {
			t.Fatal("view not birthday-ordered")
		}
	}

	// Session guarantees hold across sockets too.
	sess := c.NewSession("users")
	if err := c.InsertSession("users", Row{"id": "me", "name": "Me", "birthday": 7}, sess); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, found, err := c.GetSession("users", Row{"id": "me"}, sess); err != nil || !found {
			t.Fatalf("session read %d over TCP: found=%v err=%v", i, found, err)
		}
	}

	// Read-modify-writes meet only at the primary's bounded swap, whose
	// bound and answers cross the wire: concurrent increments lose none.
	const incrementers, increments = 4, 10
	errs := make(chan error, incrementers)
	for w := 0; w < incrementers; w++ {
		go func() {
			var err error
			for i := 0; i < increments && err == nil; i++ {
				err = c.UpdateFunc("users", Row{"id": "ctr"}, func(cur Row) (Row, error) {
					n := int64(0)
					if cur != nil {
						n = cur["birthday"].(int64)
					}
					return Row{"id": "ctr", "birthday": n + 1}, nil
				})
			}
			errs <- err
		}()
	}
	for w := 0; w < incrementers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if ctr, _, err := c.Get("users", Row{"id": "ctr"}); err != nil || ctr["birthday"] != int64(incrementers*increments) {
		t.Fatalf("counter over TCP = %v (%v), want %d", ctr, err, incrementers*increments)
	}

	// Kill one server process: reads fail over.
	servers[1].Close()
	ok := 0
	for i := 0; i < 50; i++ {
		if _, found, err := c.Get("users", Row{"id": fmt.Sprintf("user%03d", i)}); err == nil && found {
			ok++
		}
	}
	if ok != 50 {
		t.Fatalf("only %d/50 reads survived a node kill", ok)
	}
}
