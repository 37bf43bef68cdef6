package scads

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/rpc"
)

const scanTestDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
QUERY pageUsers
SELECT id, name FROM users WHERE id >= ?lo LIMIT 200
`

// seedScanCluster builds an n-node cluster with the users table split
// into `ranges` ranges of `per` rows each, spread across the nodes.
func seedScanCluster(t *testing.T, nodes, ranges, per int, cfg Config) *LocalCluster {
	t.Helper()
	lc, err := NewLocalCluster(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.DefineSchema(scanTestDDL); err != nil {
		t.Fatal(err)
	}
	var splits []any
	for at := per; at < ranges*per; at += per {
		splits = append(splits, scanTestID(at))
	}
	if err := lc.SplitTable("users", splits...); err != nil {
		t.Fatal(err)
	}
	if err := lc.SpreadAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ranges*per; i++ {
		if err := lc.Insert("users", Row{"id": scanTestID(i), "name": "n-" + scanTestID(i), "birthday": 1}); err != nil {
			t.Fatal(err)
		}
	}
	for lc.Pump().Drain(4096) > 0 {
	}
	return lc
}

func scanTestID(i int) string { return fmt.Sprintf("user%04d", i) }

// verifyPage checks one pageUsers result for exact content: rows
// [lo, lo+200) in order, projected to id+name.
func verifyPage(rows []Row, lo, total int) error {
	want := total - lo
	if want > 200 {
		want = 200
	}
	if len(rows) != want {
		return fmt.Errorf("got %d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		id := scanTestID(lo + i)
		if r["id"] != id || r["name"] != "n-"+id {
			return fmt.Errorf("row %d = %v, want id %s", i, r, id)
		}
		if _, ok := r["birthday"]; ok {
			return fmt.Errorf("row %d leaked unprojected column: %v", i, r)
		}
	}
	return nil
}

// TestScanAcrossFencedRange fences a mid-scan range the way a
// migration handoff does: the query must stall until the fence lifts
// and then return exact results, never an error.
func TestScanAcrossFencedRange(t *testing.T) {
	lc := seedScanCluster(t, 3, 6, 100, Config{})
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	rng := m.Ranges()[2] // inside the scanned window

	addr := "local://" + rng.Replicas[0]
	fence := func(on bool) {
		resp, err := lc.Transport.Call(addr, rpc.Request{
			Method: rpc.MethodRangeFence, Namespace: ns,
			Start: rng.Start, End: rng.End, Fence: on,
		})
		if err != nil || resp.Error() != nil {
			t.Errorf("fence(%v): %v %v", on, err, resp.Error())
		}
	}
	fence(true)
	go func() {
		time.Sleep(30 * time.Millisecond)
		fence(false)
	}()

	start := time.Now()
	rows, err := lc.Query("pageUsers", map[string]any{"lo": scanTestID(100)})
	if err != nil {
		t.Fatalf("query across fenced range: %v", err)
	}
	if err := verifyPage(rows, 100, 600); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatalf("query returned in %v — did not wait out the fence", time.Since(start))
	}
}

// TestScanWithCrashedPrimary kills a scanned range's primary: RF=2
// scans must fail over to the surviving replica with exact results.
func TestScanWithCrashedPrimary(t *testing.T) {
	lc := seedScanCluster(t, 4, 6, 100, Config{ReplicationFactor: 2})
	ns := planner.TableNamespace("users")
	m, _ := lc.Router().Map(ns)
	victim := m.Ranges()[3].Replicas[0]
	lc.CrashNode(victim)

	for i := 0; i < 5; i++ {
		rows, err := lc.Query("pageUsers", map[string]any{"lo": scanTestID(250)})
		if err != nil {
			t.Fatalf("query with crashed primary: %v", err)
		}
		if err := verifyPage(rows, 250, 600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanLimitExactAtRangeBoundaries drives the public query path
// with windows whose limits land exactly on, before, and after range
// boundaries.
func TestScanLimitExactAtRangeBoundaries(t *testing.T) {
	lc := seedScanCluster(t, 3, 4, 100, Config{})
	// pageUsers LIMIT 200 = exactly two ranges; start the window at a
	// boundary, one short of it, and one past it.
	for _, lo := range []int{100, 99, 101} {
		rows, err := lc.Query("pageUsers", map[string]any{"lo": scanTestID(lo)})
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyPage(rows, lo, 400); err != nil {
			t.Fatalf("lo=%d: %v", lo, err)
		}
	}
}

// TestScanQueryLoadRecordingCoversAllRanges is the regression test for
// the balancer-starvation bug: a multi-range scan must record load on
// every range it overlaps, not just the first.
func TestScanQueryLoadRecordingCoversAllRanges(t *testing.T) {
	lc := seedScanCluster(t, 3, 4, 100, Config{})

	// Reset the window (seeding recorded write load), run one scan
	// spanning ranges 1..3, then snapshot.
	lc.loads.Reset()
	if _, err := lc.Query("pageUsers", map[string]any{"lo": scanTestID(150)}); err != nil {
		t.Fatal(err)
	}
	obs := lc.LoadSnapshot()
	ns := planner.TableNamespace("users")
	recorded := 0
	for _, o := range obs {
		if o.Namespace == ns && o.Ops > 0 {
			recorded++
		}
	}
	// [user0150, user0350) overlaps ranges [100,200), [200,300), [300,400).
	if recorded < 3 {
		t.Fatalf("scan recorded load on %d ranges, want >=3 (balancer starvation bug)", recorded)
	}
}

// TestScanDuringMigrationHammer runs verifying scanners against a
// static dataset while every range is repeatedly migrated across the
// node set. Zero errors and zero wrong results are required — scans
// must ride through fences, flips and teardowns. Run with -race in CI.
func TestScanDuringMigrationHammer(t *testing.T) {
	lc := seedScanCluster(t, 3, 8, 75, Config{})
	ns := planner.TableNamespace("users")
	const total = 8 * 75

	var (
		stop     atomic.Bool
		scanErrs atomic.Int64
		wrong    atomic.Int64
		scans    atomic.Int64
		wg       sync.WaitGroup
	)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				lo := (s*37 + i*53) % (total - 10)
				rows, err := lc.Query("pageUsers", map[string]any{"lo": scanTestID(lo)})
				if err != nil {
					scanErrs.Add(1)
					continue
				}
				if err := verifyPage(rows, lo, total); err != nil {
					t.Log(err)
					wrong.Add(1)
					continue
				}
				scans.Add(1)
			}
		}(s)
	}
	// One direct router-level scanner exercising the scatter-gather
	// path with a large multi-range window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			recs, err := lc.Router().ScanOpts(ns, nil, nil, partition.ScanOptions{Limit: total + 10, Policy: partition.ReadAny})
			if err != nil {
				scanErrs.Add(1)
				continue
			}
			if len(recs) != total {
				wrong.Add(1)
				continue
			}
			scans.Add(1)
		}
	}()

	// Cycle every range across the node set until the scanners have
	// demonstrably overlapped with plenty of migrations.
	nodeIDs := lc.NodeIDs()
	m, _ := lc.Router().Map(ns)
	migrations := 0
	deadline := time.Now().Add(20 * time.Second)
	for r := 0; scans.Load() < 30 && time.Now().Before(deadline); r++ {
		for i, rng := range m.Ranges() {
			if err := lc.MoveRange(ns, rng.Start, partition.Spread(r+i, nodeIDs, 1)); err != nil {
				t.Errorf("migration round %d range %d: %v", r, i, err)
			}
			migrations++
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("hammer: %d migrations raced %d verified scans", migrations, scans.Load())

	if scanErrs.Load() > 0 || wrong.Load() > 0 {
		t.Fatalf("scans broke under migration churn: errors=%d wrong=%d (ok=%d)",
			scanErrs.Load(), wrong.Load(), scans.Load())
	}
	if scans.Load() == 0 {
		t.Fatal("no scans completed during churn")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
