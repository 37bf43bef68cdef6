package scads

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scads/internal/rpc"
)

// TestInsertBatchAndGetMulti exercises the batched public hot path
// end to end: a bulk insert lands through per-node multi-record
// applies, index maintenance keeps declared queries correct, and
// GetMulti answers positionally.
func TestInsertBatchAndGetMulti(t *testing.T) {
	lc, err := NewLocalCluster(4, Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}

	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{"id": fmt.Sprintf("user%03d", i), "name": fmt.Sprintf("N%03d", i), "birthday": i%365 + 1}
	}
	if err := lc.InsertBatch("users", rows); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Every row visible through the ordinary read path.
	for i := 0; i < 100; i += 7 {
		r, found, err := lc.Get("users", Row{"id": fmt.Sprintf("user%03d", i)})
		if err != nil || !found {
			t.Fatalf("user%03d: found=%v err=%v", i, found, err)
		}
		if r["name"] != fmt.Sprintf("N%03d", i) {
			t.Fatalf("user%03d name = %v", i, r["name"])
		}
	}

	// GetMulti: positional hits and misses.
	pks := []Row{
		{"id": "user005"},
		{"id": "no-such-user"},
		{"id": "user099"},
	}
	got, found, err := lc.GetMulti("users", pks)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || found[1] || !found[2] {
		t.Fatalf("found = %v, want [true false true]", found)
	}
	if got[0]["name"] != "N005" || got[2]["name"] != "N099" {
		t.Fatalf("rows = %v / %v", got[0], got[2])
	}

	// Declared queries still work over batch-inserted data (the
	// asynchronous index maintenance path ran for each row).
	if err := lc.InsertBatch("friendships", []Row{
		{"f1": "user001", "f2": "user002"},
		{"f1": "user001", "f2": "user003"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "user001"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("query over batch-inserted rows returned %d rows, want 2", len(res))
	}
}

// TestInsertBatchRetiresOldIndexEntries: overwriting a row through
// InsertBatch must retire index entries derived from the old image,
// exactly like Insert.
func TestInsertBatchRetiresOldIndexEntries(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("users", Row{"id": "u1", "name": "A", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "probe", "f2": "u1"}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Move u1's birthday via the batched path; the birthday-ordered
	// index for probe's friends must reflect only the new value.
	if err := lc.InsertBatch("users", []Row{{"id": "u1", "name": "A", "birthday": 200}}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d rows, want 1 (old index entry retired)", len(res))
	}
	if res[0]["birthday"] != int64(200) {
		t.Fatalf("birthday = %v, want 200", res[0]["birthday"])
	}

	// Duplicate primary keys inside one batch: the later row must see
	// the earlier one as its old image, so only the final birthday
	// survives in the index.
	if err := lc.InsertBatch("users", []Row{
		{"id": "u1", "name": "A", "birthday": 50},
		{"id": "u1", "name": "A", "birthday": 300},
	}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err = lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("duplicate-key batch left %d index rows, want 1", len(res))
	}
	if res[0]["birthday"] != int64(300) {
		t.Fatalf("birthday = %v, want 300", res[0]["birthday"])
	}
}

// heldTransport records the requests it sees once armed and holds the
// first until want of them have entered Call (or patience runs out).
type heldTransport struct {
	next rpc.Transport
	want int

	mu      sync.Mutex
	armed   bool
	seen    []rpc.Request
	entered chan struct{} // closed when want requests are in Call
}

func (h *heldTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	h.mu.Lock()
	first := false
	if h.armed {
		h.seen = append(h.seen, req)
		first = len(h.seen) == 1
		if len(h.seen) == h.want {
			close(h.entered)
		}
	}
	h.mu.Unlock()
	if first {
		select {
		case <-h.entered:
		case <-time.After(2 * time.Second):
		}
	}
	return h.next.Call(addr, req)
}

// TestConcurrentGetsTravelUnwrapped: concurrent gets to one node reach
// the transport as the gets they are, each its own call — nothing
// between the coordinator and the transport packs them into envelopes
// — and the coordinator reports no batching.
func TestConcurrentGetsTravelUnwrapped(t *testing.T) {
	const n = 8
	held := &heldTransport{want: n, entered: make(chan struct{})}
	c := newWrappedCluster(t, 1, noIndexDDL, func(next rpc.Transport) rpc.Transport {
		held.next = next
		return held
	})
	for i := 0; i < n; i++ {
		if err := c.Insert("users", Row{"id": fmt.Sprintf("u%d", i), "name": "N", "birthday": i}); err != nil {
			t.Fatal(err)
		}
	}
	held.mu.Lock()
	held.armed = true
	held.mu.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if r, found, err := c.Get("users", Row{"id": id}); err != nil || !found || r["id"] != id {
				t.Errorf("get %s = %v, %v, %v", id, r, found, err)
			}
		}(fmt.Sprintf("u%d", i))
	}
	wg.Wait()

	held.mu.Lock()
	defer held.mu.Unlock()
	if len(held.seen) != n {
		t.Errorf("transport saw %d calls for %d concurrent gets, want %d", len(held.seen), n, n)
	}
	for _, req := range held.seen {
		if req.Method != rpc.MethodGet {
			t.Errorf("transport saw a %q call carrying %d records, want only gets", req.Method, len(req.Records))
		}
	}
	if st := c.Stats().Batching; st != (rpc.BatcherStats{}) {
		t.Errorf("Stats().Batching = %+v, want zero", st)
	}
}
