package scads

// Tests of writers of one key that meet only at the key's primary: no
// coordinator lock orders them, so index upkeep must be exact whatever
// order their maintenance tasks are queued in, and read-modify-writes
// must lose no update.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
)

// namespaceContents is every live record of ns, key to value, read from
// the primaries.
func namespaceContents(t *testing.T, c *Cluster, ns string) map[string]string {
	t.Helper()
	recs, err := c.router.Scan(ns, nil, nil, 1<<20, partition.Primary)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(recs))
	for _, r := range recs {
		out[string(r.Key)] = string(r.Value)
	}
	return out
}

// checkIndexesMatchRebuild drains c and fails unless every index and
// view namespace holds exactly what a fresh cluster derives from c's
// base tables.
func checkIndexesMatchRebuild(t *testing.T, c *Cluster, ddl string) {
	t.Helper()
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fresh := newWrappedCluster(t, 1, ddl, func(next rpc.Transport) rpc.Transport { return next })
	base := make(map[string]bool)
	for name := range c.schema.Tables {
		ns := planner.TableNamespace(name)
		base[ns] = true
		for _, val := range namespaceContents(t, c, ns) {
			r, err := row.Decode([]byte(val))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Insert(name, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fresh.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range c.router.Namespaces() {
		if base[ns] {
			continue
		}
		if got, want := namespaceContents(t, c, ns), namespaceContents(t, fresh, ns); !maps.Equal(got, want) {
			t.Errorf("%s holds %d entries, a rebuild from the base tables %d: upkeep diverged", ns, len(got), len(want))
		}
	}
}

// holdTransport lands the first swap to one namespace after arming and
// holds its answer until release is closed; landed is closed once the
// swap has landed.
type holdTransport struct {
	next      rpc.Transport
	namespace string

	mu              sync.Mutex
	armed           bool
	landed, release chan struct{}
}

func (h *holdTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	h.mu.Lock()
	hold := h.armed && req.Method == rpc.MethodSwap && req.Namespace == h.namespace
	if hold {
		h.armed = false
	}
	h.mu.Unlock()
	resp, err := h.next.Call(addr, req)
	if hold {
		close(h.landed)
		<-h.release
	}
	return resp, err
}

// TestLockFreeWritersPushInversion: writer Y's swap displaces bob's row
// A with B, but its answer is held until writer X has displaced B with
// C and X's upkeep (B's entries out) has run. Y's task (A's entries
// out) is queued last; upkeep that installed the row a write carried,
// rather than the key's current row, would leave B's entries in the
// view for good.
func TestLockFreeWritersPushInversion(t *testing.T) {
	hold := &holdTransport{namespace: planner.TableNamespace("users"), landed: make(chan struct{}), release: make(chan struct{})}
	c := newWrappedCluster(t, 1, socialDDL, func(next rpc.Transport) rpc.Transport {
		hold.next = next
		return hold
	})
	if err := c.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("friendships", Row{"f1": "alice", "f2": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	hold.mu.Lock()
	hold.armed = true
	hold.mu.Unlock()

	y := make(chan error, 1)
	go func() { y <- c.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 20}) }()
	<-hold.landed
	if err := c.Insert("users", Row{"id": "bob", "name": "Bob", "birthday": 30}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.DrainMaintenance(10); n != 1 || err != nil {
		t.Fatalf("DrainMaintenance = %d, %v, want X's task alone", n, err)
	}
	close(hold.release)
	if err := <-y; err != nil {
		t.Fatal(err)
	}

	checkIndexesMatchRebuild(t, c, socialDDL)
	rows, err := c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["birthday"] != int64(30) {
		t.Fatalf("view holds %v, want bob at 30 only", rows)
	}
}

// TestLockFreeWritersHammer races Insert, InsertBatch, UpdateFunc and
// Delete on three users rows, and UpdateFunc increments on a fourth,
// while two drainers run index upkeep. Afterwards every index equals a
// rebuild from the base tables and no acked increment is lost.
func TestLockFreeWritersHammer(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{Clock: clock.NewVirtual(t0), ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	users := []string{"u0", "u1", "u2"}
	for _, f2 := range append(users, "ctr") {
		if err := lc.Insert("friendships", Row{"f1": "alice", "f2": f2}); err != nil {
			t.Fatal(err)
		}
	}

	const workers, ops = 6, 60
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := users[rng.Intn(len(users))]
				user := Row{"id": id, "name": fmt.Sprintf("w%d-%d", w, i), "birthday": rng.Intn(365)}
				var err error
				switch rng.Intn(5) {
				case 0:
					err = lc.Insert("users", user)
				case 1:
					other := Row{"id": users[rng.Intn(len(users))], "name": "other", "birthday": rng.Intn(365)}
					again := Row{"id": id, "name": "again", "birthday": rng.Intn(365)}
					err = lc.InsertBatch("users", []Row{user, other, again})
				case 2:
					err = lc.UpdateFunc("users", Row{"id": id}, func(cur Row) (Row, error) {
						if cur == nil {
							return user, nil
						}
						cur["birthday"] = (cur["birthday"].(int64) + 1) % 365
						return cur, nil
					})
				case 3:
					err = lc.Delete("users", Row{"id": id})
				case 4:
					err = lc.UpdateFunc("users", Row{"id": "ctr"}, func(cur Row) (Row, error) {
						n := int64(0)
						if cur != nil {
							n = cur["birthday"].(int64)
						}
						return Row{"id": "ctr", "name": "ctr", "birthday": n + 1}, nil
					})
					if err == nil {
						acked.Add(1)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	const drainers = 2
	stop := make(chan struct{})
	drained := make(chan error, drainers)
	for d := 0; d < drainers; d++ {
		go func() {
			for {
				select {
				case <-stop:
					drained <- nil
					return
				default:
				}
				if _, err := lc.DrainMaintenance(4); err != nil {
					drained <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	for d := 0; d < drainers; d++ {
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
	}

	checkIndexesMatchRebuild(t, lc.Cluster, socialDDL)
	ctr, found, err := lc.Get("users", Row{"id": "ctr"})
	if err != nil || !found {
		t.Fatalf("get ctr = %v, %v", found, err)
	}
	if ctr["birthday"] != acked.Load() {
		t.Fatalf("counter = %v after %d acked increments", ctr["birthday"], acked.Load())
	}
}

// rivalTransport lands a rival write of the key just before each
// bounded swap, so that every such swap is refused, and moves the
// cluster clock a second each time.
type rivalTransport struct {
	next   rpc.Transport
	clk    *clock.Virtual
	rivals int64
}

func (r *rivalTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if req.Method == rpc.MethodSwap && req.Since != 0 {
		r.rivals++
		val, err := row.Encode(Row{"id": "ctr", "birthday": r.rivals})
		if err != nil {
			return rpc.Response{}, err
		}
		rival := record.Record{Key: req.Records[0].Key, Value: val, Version: req.Since + 1<<20}
		if resp, err := r.next.Call(addr, rpc.Request{Method: rpc.MethodApply, Namespace: req.Namespace, Records: []record.Record{rival}}); err != nil || resp.Err != "" {
			return resp, err
		}
		r.clk.Advance(time.Second)
	}
	return r.next.Call(addr, req)
}

// TestUpdateFuncGivesUpWithWriteConflict: a read-modify-write whose
// every swap is refused runs again on each record that landed, and
// gives up with ErrWriteConflict once rpc.DownRetryBudget has passed on
// the cluster clock, having stored nothing of its own.
func TestUpdateFuncGivesUpWithWriteConflict(t *testing.T) {
	rival := &rivalTransport{}
	c := newWrappedCluster(t, 1, noIndexDDL, func(next rpc.Transport) rpc.Transport {
		rival.next = next
		return rival
	})
	rival.clk = c.clk.(*clock.Virtual)
	var seen []any
	err := c.UpdateFunc("users", Row{"id": "ctr"}, func(cur Row) (Row, error) {
		if cur != nil {
			seen = append(seen, cur["birthday"])
		}
		return Row{"id": "ctr", "birthday": 0}, nil
	})
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("UpdateFunc = %v, want %v", err, ErrWriteConflict)
	}
	if want := int64(rpc.DownRetryBudget / time.Second); rival.rivals != want || len(seen) != int(want)-1 {
		t.Errorf("%d refused swaps, fn saw %v; want %d swaps, fn run again on each rival but the last", rival.rivals, seen, want)
	}
	got, _, err := c.Get("users", Row{"id": "ctr"})
	if err != nil || got["birthday"] != rival.rivals {
		t.Fatalf("ctr holds %v (%v), want the last rival's %d", got, err, rival.rivals)
	}
}
