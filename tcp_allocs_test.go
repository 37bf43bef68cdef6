//go:build !race

package scads

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled frame buffers and result channels of the call path allocate
// and the count below does not hold; the pin runs in the plain build.

import (
	"strings"
	"testing"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// TestWarmGetAllocsOverTCP pins what one hot point read allocates end
// to end — coordinator, transport, server dispatch and the node's
// cached read, both sides of the socket being in this process — on the
// ledger's five-column users row. testing.AllocsPerRun runs under
// GOMAXPROCS(1), which makes the count deterministic.
func TestWarmGetAllocsOverTCP(t *testing.T) {
	clk := clock.NewReal()
	engine, err := storage.Open(storage.Options{NodeID: 1, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := rpc.NewServer(cluster.NewNode("tcp-node-1", engine))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := cluster.NewDirectory(clk)
	dir.Join("tcp-node-1", addr)
	dir.MarkUp("tcp-node-1")
	transport := rpc.NewTCPTransport()
	defer transport.Close()
	c, err := Open(Config{Clock: clk, Transport: transport, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DefineSchema(`
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int,
    bio string,
    counter int
)
`); err != nil {
		t.Fatal(err)
	}
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
	get() // dial, fill the record cache
	if allocs := testing.AllocsPerRun(200, get); allocs > 20 {
		t.Errorf("warm Cluster.Get over TCP allocates %.1f times per call, want <= 20", allocs)
	}
}
