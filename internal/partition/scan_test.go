package partition

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/keycodec"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
)

// loadScanData writes n sequential keys through the router so each
// lands on its range's primary, then returns the sorted key list.
func loadScanData(t *testing.T, tc *testCluster, namespace string, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%04d", i))
		keys[i] = key
		if _, _, err := tc.router.Put(namespace, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func checkOrdered(t *testing.T, recs []record.Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, recs[i-1].Key, recs[i].Key)
		}
	}
}

func TestScanParallelMatchesSequential(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2", "n3")
	m, _ := NewMap([]string{"n1"})
	for _, at := range []string{"k-0100", "k-0200", "k-0300", "k-0400", "k-0500", "k-0600", "k-0700"} {
		if err := m.Split([]byte(at)); err != nil {
			t.Fatal(err)
		}
	}
	nodes := []string{"n1", "n2", "n3"}
	for i, rng := range m.Ranges() {
		m.SetReplicas(rng.Start, Spread(i, nodes, 1))
	}
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 800)

	for _, limit := range []int{1, 37, 100, 101, 799, 800, 4000} {
		seq, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: limit, Policy: Primary, parallelism: 1})
		if err != nil {
			t.Fatalf("sequential limit=%d: %v", limit, err)
		}
		par, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: limit, Policy: Primary, parallelism: 8})
		if err != nil {
			t.Fatalf("parallel limit=%d: %v", limit, err)
		}
		want := limit
		if want > 800 {
			want = 800
		}
		if len(seq) != want || len(par) != want {
			t.Fatalf("limit=%d: sequential %d, parallel %d, want %d", limit, len(seq), len(par), want)
		}
		checkOrdered(t, par)
		for i := range seq {
			if !bytes.Equal(seq[i].Key, par[i].Key) {
				t.Fatalf("limit=%d: results diverge at %d: %q vs %q", limit, i, seq[i].Key, par[i].Key)
			}
		}
	}
}

func TestScanLimitCutoffAtRangeBoundaries(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	if err := m.Split([]byte("k-0050")); err != nil {
		t.Fatal(err)
	}
	m.SetReplicas([]byte("k-0099"), []string{"n2"})
	tc.router.SetMap("ns", m)
	keys := loadScanData(t, tc, "ns", 100)

	// Limits landing exactly on, just before, and just after the range
	// boundary must return exactly that many records, in order.
	for _, limit := range []int{49, 50, 51} {
		recs, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: limit, Policy: Primary})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != limit {
			t.Fatalf("limit=%d returned %d records", limit, len(recs))
		}
		checkOrdered(t, recs)
		if !bytes.Equal(recs[limit-1].Key, keys[limit-1]) {
			t.Fatalf("limit=%d last key %q, want %q", limit, recs[limit-1].Key, keys[limit-1])
		}
	}
}

func TestScanAdaptiveRefetchOnSkew(t *testing.T) {
	// Two ranges with heavily skewed population: the proportional
	// pushed-down limit truncates the first range's page, and the
	// gather loop must page on from the node's resume cursor instead of
	// silently under-filling.
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	if err := m.Split([]byte("k-0500")); err != nil {
		t.Fatal(err)
	}
	m.SetReplicas([]byte("k-0999"), []string{"n2"})
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 600) // 500 rows in range 1, 100 in range 2

	recs, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 550, Policy: Primary, parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 550 {
		t.Fatalf("skewed scan returned %d records, want 550", len(recs))
	}
	checkOrdered(t, recs)
}

func TestScanFenceRetryRidesThroughHandoff(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 50)

	// Fence the whole keyspace on n1 (as a migration's handoff
	// would), then lift it shortly after from another goroutine: the
	// scan must stall and then complete, never error.
	fence := func(on bool) {
		resp, err := tc.transport.Call("addr-n1", rpc.Request{
			Method: rpc.MethodRangeFence, Namespace: "ns", Fence: on,
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
	recs, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: ReadAny})
	if err != nil {
		t.Fatalf("scan across fenced range: %v", err)
	}
	if len(recs) != 50 {
		t.Fatalf("scan returned %d records, want 50", len(recs))
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatalf("scan returned in %v — did not wait for the fence to lift", time.Since(start))
	}
}

func TestScanFenceRetryFollowsFlip(t *testing.T) {
	// The donor stays fenced forever (it lost the range); the scan's
	// retry must pick up the flipped partition map and land on the new
	// holder.
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	keys := loadScanData(t, tc, "ns", 40)

	// Copy the data to n2 (the migration recipient).
	var recs []record.Record
	for _, key := range keys {
		v, ver, found, err := tc.router.GetFrom("ns", "n1", key)
		if err != nil || !found {
			t.Fatalf("seed read: %v", err)
		}
		recs = append(recs, record.Record{Key: key, Value: v, Version: ver})
	}
	if err := tc.router.Apply("ns", "n2", recs); err != nil {
		t.Fatal(err)
	}

	resp, err := tc.transport.Call("addr-n1", rpc.Request{Method: rpc.MethodRangeFence, Namespace: "ns", Fence: true})
	if err != nil || resp.Error() != nil {
		t.Fatalf("fence: %v %v", err, resp.Error())
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.SetReplicas([]byte{}, []string{"n2"}) // the routing flip
	}()
	out, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: ReadAny})
	if err != nil {
		t.Fatalf("scan across flipping range: %v", err)
	}
	if len(out) != 40 {
		t.Fatalf("scan returned %d records, want 40", len(out))
	}
}

func TestScanCrashedPrimaryFailsOverToReplica(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("ns", m)
	keys := loadScanData(t, tc, "ns", 30)

	// Replicate to the secondary, then kill the primary: a scan under
	// ReadAny must fail over.
	var recs []record.Record
	for _, key := range keys {
		v, ver, _, err := tc.router.GetFrom("ns", "n1", key)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record.Record{Key: key, Value: v, Version: ver})
	}
	if err := tc.router.Apply("ns", "n2", recs); err != nil {
		t.Fatal(err)
	}
	tc.transport.SetDown("addr-n1", true)

	out, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: ReadAny})
	if err != nil {
		t.Fatalf("scan with crashed primary: %v", err)
	}
	if len(out) != 30 {
		t.Fatalf("scan returned %d records, want 30", len(out))
	}
}

func TestScanPushdownReachesNodes(t *testing.T) {
	// Wire-level check that projection and predicates travel with the
	// sub-scan requests: a recording transport inspects every
	// MethodScan.
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	m.Split([]byte("k-0015"))
	m.SetReplicas([]byte("k-0020"), []string{"n2"})

	var scans atomic.Int64
	rec := &recordingTransport{next: tc.transport, onScan: func(req rpc.Request) {
		scans.Add(1)
		if len(req.Projection) != 1 || req.Projection[0] != "name" {
			t.Errorf("scan request projection = %v", req.Projection)
		}
		if len(req.Preds) != 1 || req.Preds[0].Column != "age" {
			t.Errorf("scan request preds = %v", req.Preds)
		}
	}}
	router := NewRouter(rec, tc.dir)
	router.SetMap("ns", m)
	tc.router.SetMap("ns", m)
	// Real encoded rows, so the nodes can evaluate the pushdown and
	// both sub-scans succeed.
	for i := 0; i < 30; i++ {
		val, err := row.Encode(row.Row{"name": fmt.Sprintf("u%d", i), "age": int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tc.router.Put("ns", []byte(fmt.Sprintf("k-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	ge, err := keycodec.Append(nil, int64(10))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := router.ScanOpts("ns", nil, nil, ScanOptions{
		Limit:      100,
		Policy:     Primary,
		Projection: []string{"name"},
		Preds:      []rpc.ScanPred{{Column: "age", Op: rpc.PredGe, Value: ge}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("pushed-down scan returned %d rows, want the 20 with age >= 10", len(recs))
	}
	if scans.Load() < 2 {
		t.Fatalf("expected >=2 sub-scans, saw %d", scans.Load())
	}
}

// TestScanFirstErrorAbandonsUnstartedSiblings pins what ScanOpts does
// when a sub-scan fails for good: the scan returns that error and
// sub-intervals no worker has claimed yet are never issued. The single
// worker may claim the second sub-interval before the gather loop sees
// the first one's error; the transport holds that request until the
// scan has returned, so the third claim is certain to see the cutoff.
func TestScanFirstErrorAbandonsUnstartedSiblings(t *testing.T) {
	tc := newTestCluster(t, "n1")
	m, _ := NewMap([]string{"n1"})
	for _, at := range []string{"k-0010", "k-0020", "k-0030"} {
		m.Split([]byte(at))
	}
	var scans atomic.Int64
	returned := make(chan struct{})
	router := NewRouter(&recordingTransport{next: tc.transport, onScan: func(rpc.Request) {
		if scans.Add(1) > 1 {
			<-returned
		}
	}}, tc.dir)
	router.SetMap("ns", m)
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 40) // opaque values: a projecting node cannot decode them

	_, err := router.ScanOpts("ns", nil, nil, ScanOptions{
		Limit: 100, Policy: Primary, parallelism: 1, Projection: []string{"name"},
	})
	if err == nil {
		t.Fatal("scan over undecodable rows succeeded")
	}
	close(returned)
	// Give the worker time to run off the end of its claims; a slow
	// scheduler can only make this check vacuous, never fail it.
	time.Sleep(20 * time.Millisecond)
	if n := scans.Load(); n > 2 {
		t.Fatalf("%d of 4 sub-scans issued though the first failed, want at most 2", n)
	}
}

type recordingTransport struct {
	next   rpc.Transport
	onScan func(rpc.Request)
}

func (r *recordingTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if req.Method == rpc.MethodScan {
		r.onScan(req)
	}
	return r.next.Call(addr, req)
}

func TestScanRejectsUnboundedLimit(t *testing.T) {
	tc := newTestCluster(t, "n1")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	if _, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 0}); err == nil {
		t.Fatal("unbounded scan accepted")
	}
}
