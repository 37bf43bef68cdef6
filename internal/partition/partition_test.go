package partition

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// contains reports whether key falls inside r: the reference Lookup's
// binary search is checked against.
func contains(r Range, key []byte) bool {
	return (r.Start == nil || bytes.Compare(key, r.Start) >= 0) &&
		(r.End == nil || bytes.Compare(key, r.End) < 0)
}

func TestNewMapCoversEverything(t *testing.T) {
	m, err := NewMap([]string{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "a", "zzz", "\xff\xff"} {
		rng := m.Lookup([]byte(k))
		if !contains(rng, []byte(k)) {
			t.Fatalf("Lookup(%q) returned non-containing range %v", k, rng)
		}
	}
	if _, err := NewMap(nil); err != ErrNeedReplicas {
		t.Fatalf("NewMap(nil) = %v", err)
	}
}

func TestSplitAndLookup(t *testing.T) {
	m, _ := NewMap([]string{"n1"})
	if err := m.Split([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	left := m.Lookup([]byte("a"))
	right := m.Lookup([]byte("z"))
	if left.End == nil || !bytes.Equal(left.End, []byte("m")) {
		t.Fatalf("left = %v", left)
	}
	if right.Start == nil || !bytes.Equal(right.Start, []byte("m")) {
		t.Fatalf("right = %v", right)
	}
	// Boundary key belongs to the right range (start inclusive).
	if got := m.Lookup([]byte("m")); !bytes.Equal(got.Start, []byte("m")) {
		t.Fatalf("Lookup(m) = %v", got)
	}
	// Splitting at an existing boundary fails.
	if err := m.Split([]byte("m")); err != ErrBadSplit {
		t.Fatalf("double split = %v", err)
	}
	if err := m.Split(nil); err != ErrBadSplit {
		t.Fatalf("nil split = %v", err)
	}
}

func TestSetReplicasAndReplaceNode(t *testing.T) {
	m, _ := NewMap([]string{"n1", "n2"})
	m.Split([]byte("m"))
	if err := m.SetReplicas([]byte("z"), []string{"n3"}); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup([]byte("z")).Replicas; len(got) != 1 || got[0] != "n3" {
		t.Fatalf("replicas = %v", got)
	}
	if err := m.SetReplicas([]byte("z"), nil); err != ErrNeedReplicas {
		t.Fatal("empty replica set accepted")
	}
	// Replacing a node is a compare-and-set of its range's group.
	if err := m.CompareAndSetReplicas([]byte("a"), []string{"n1", "n2"}, []string{"n9", "n2"}); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup([]byte("a")).Replicas[0]; got != "n9" {
		t.Fatalf("primary after replace = %q", got)
	}
	nodes := m.NodesInUse()
	if !nodes["n9"] || !nodes["n2"] || !nodes["n3"] || nodes["n1"] {
		t.Fatalf("NodesInUse = %v", nodes)
	}
}

// TestLookupAllocs: Lookup is on every routed request and hands out
// the map's own range.
func TestLookupAllocs(t *testing.T) {
	m, _ := NewMap([]string{"n1", "n2"})
	if err := m.Split([]byte("m")); err != nil {
		t.Fatal(err)
	}
	key := []byte("q")
	if n := testing.AllocsPerRun(200, func() {
		if rng := m.Lookup(key); len(rng.Replicas) != 2 {
			t.Fatalf("Lookup = %v", rng)
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %.0f times, want 0", n)
	}
}

// TestLookupRangeSurvivesMutations is the aliasing-safety test for the
// clone-free Lookup: a Range a reader holds is unchanged after every
// kind of mutation of its map (a published slice is never written),
// also while a concurrent mutator churns the map — which is what the
// race detector checks here.
func TestLookupRangeSurvivesMutations(t *testing.T) {
	m, _ := NewMap([]string{"n1", "n2"})
	if err := m.Split([]byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := m.Split([]byte("p")); err != nil {
		t.Fatal(err)
	}
	key := []byte("k") // in [h, p)
	held := m.Lookup(key)
	want := held.clone()
	same := func(after string) {
		t.Helper()
		if !bytes.Equal(held.Start, want.Start) || !bytes.Equal(held.End, want.End) || !slices.Equal(held.Replicas, want.Replicas) {
			t.Fatalf("range held since before %s changed under its reader: %v, was %v", after, held, want)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // churns the same range the reader holds
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.SetReplicas(key, []string{"n1", "n9"})
			m.CompareAndSetReplicas(key, []string{"n1", "n9"}, []string{"n1", "n2"})
			m.SetReplicas(key, []string{"n1", "n2"})
		}
	}()
	for i := 0; i < 200; i++ {
		if rng := m.Lookup(key); len(rng.Replicas) != 2 || rng.Replicas[0] != "n1" {
			t.Fatalf("Lookup under churn = %v", rng)
		}
		same("concurrent SetReplicas/CompareAndSetReplicas")
	}
	close(stop)
	<-done

	if err := m.Split([]byte("l")); err != nil {
		t.Fatal(err)
	}
	same("Split")
	if err := m.SetReplicas(key, []string{"n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	same("SetReplicas")
	if err := m.CompareAndSetReplicas(key, []string{"n3", "n4"}, []string{"n1", "n2"}); err != nil {
		t.Fatal(err)
	}
	same("CompareAndSetReplicas")
}

func TestOverlapping(t *testing.T) {
	m, _ := NewMap([]string{"n1"})
	m.Split([]byte("g"))
	m.Split([]byte("p"))
	// [nil,g) [g,p) [p,nil)
	cases := []struct {
		start, end string
		want       int
	}{
		{"a", "b", 1},
		{"a", "h", 2},
		{"a", "z", 3},
		{"h", "i", 1},
		{"q", "z", 1},
		{"g", "p", 1},
	}
	for _, c := range cases {
		got := m.Overlapping([]byte(c.start), []byte(c.end))
		if len(got) != c.want {
			t.Errorf("Overlapping(%q,%q) = %d ranges, want %d", c.start, c.end, len(got), c.want)
		}
	}
	if got := m.Overlapping(nil, nil); len(got) != 3 {
		t.Errorf("Overlapping(nil,nil) = %d, want 3", len(got))
	}
}

// TestOverlappingRangesSurviveMutations: ranges taken from Overlapping
// share the map's slices, and a split of one of them or a replica move
// of it (the migration flip) leaves what the reader holds unchanged.
func TestOverlappingRangesSurviveMutations(t *testing.T) {
	m, _ := NewMap([]string{"n1", "n2"})
	if err := m.Split([]byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := m.Split([]byte("p")); err != nil {
		t.Fatal(err)
	}
	held := m.Overlapping([]byte("a"), []byte("z"))
	if len(held) != 3 {
		t.Fatalf("Overlapping = %v, want 3 ranges", held)
	}
	want := make([]Range, len(held))
	for i, r := range held {
		want[i] = r.clone()
	}
	same := func(after string) {
		t.Helper()
		for i, r := range held {
			if !bytes.Equal(r.Start, want[i].Start) || !bytes.Equal(r.End, want[i].End) || !slices.Equal(r.Replicas, want[i].Replicas) {
				t.Fatalf("range %d held since before %s changed under its reader: %v, was %v", i, after, r, want[i])
			}
		}
	}
	if err := m.CompareAndSetReplicas([]byte("k"), []string{"n1", "n2"}, []string{"n3", "n4"}); err != nil { // held[1], [h, p)
		t.Fatal(err)
	}
	same("CompareAndSetReplicas")
	if err := m.SetReplicas([]byte("q"), []string{"n5"}); err != nil { // held[2], [p, +inf)
		t.Fatal(err)
	}
	same("SetReplicas")
	if err := m.Split([]byte("l")); err != nil { // [h, p) again
		t.Fatal(err)
	}
	same("Split")
	if got := m.Overlapping([]byte("k"), []byte("k\x00")); len(got) != 1 || !slices.Equal(got[0].Replicas, []string{"n3", "n4"}) {
		t.Fatalf("Overlapping after the move = %v", got)
	}
}

// Property: after any sequence of splits, the map stays valid and
// every key maps to exactly one range that contains it.
func TestQuickSplitsPreserveInvariants(t *testing.T) {
	f := func(points [][]byte, probes [][]byte) bool {
		m, _ := NewMap([]string{"n1"})
		for _, p := range points {
			if len(p) == 0 {
				continue
			}
			m.Split(p) // errors (duplicate boundary) are fine
		}
		if m.Validate() != nil {
			return false
		}
		for _, k := range probes {
			rng := m.Lookup(k)
			if !contains(rng, k) {
				return false
			}
			// Exactly one range must contain k.
			n := 0
			for _, r := range m.Ranges() {
				if contains(r, k) {
					n++
				}
			}
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- router tests ---

type testCluster struct {
	transport *rpc.LocalTransport
	dir       *cluster.Directory
	router    *Router
	nodes     map[string]*cluster.Node
}

func newTestCluster(t testing.TB, ids ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		transport: rpc.NewLocalTransport(),
		dir:       cluster.NewDirectory(clock.NewVirtual(time.Unix(0, 0))),
		nodes:     make(map[string]*cluster.Node),
	}
	tc.router = NewRouter(tc.transport, tc.dir)
	for i, id := range ids {
		e, err := storage.Open(storage.Options{NodeID: uint16(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		n := cluster.NewNode(id, e)
		tc.nodes[id] = n
		tc.transport.Register("addr-"+id, n)
		tc.dir.Join(id, "addr-"+id)
		tc.dir.MarkUp(id)
	}
	return tc
}

func TestRouterPutGet(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("users", m)

	ver, replicas, err := tc.router.Put("users", []byte("alice"), []byte("profile"))
	if err != nil || ver == 0 {
		t.Fatalf("Put: %v ver=%d", err, ver)
	}
	if len(replicas) != 2 || replicas[0] != "n1" {
		t.Fatalf("replicas = %v", replicas)
	}
	// Write landed only on the primary.
	v, _, found, err := tc.router.GetFrom("users", "n1", []byte("alice"))
	if err != nil || !found || string(v) != "profile" {
		t.Fatalf("GetFrom primary: %q %v %v", v, found, err)
	}
	_, _, found, _ = tc.router.GetFrom("users", "n2", []byte("alice"))
	if found {
		t.Fatal("write synchronously appeared on secondary (should be async)")
	}
	// Primary reads see it.
	v, _, found, err = tc.router.Get("users", []byte("alice"), ReadPrimary)
	if err != nil || !found || string(v) != "profile" {
		t.Fatalf("Get primary: %q %v %v", v, found, err)
	}
}

func TestRouterApplyPropagates(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("users", m)

	ver, _, err := tc.router.Put("users", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	recs := []record.Record{{Key: []byte("k"), Value: []byte("v"), Version: ver}}
	if err := tc.router.Apply("users", "n2", recs); err != nil {
		t.Fatal(err)
	}
	v, gotVer, found, err := tc.router.GetFrom("users", "n2", []byte("k"))
	if err != nil || !found || string(v) != "v" || gotVer != ver {
		t.Fatalf("after apply: %q ver=%d found=%v err=%v", v, gotVer, found, err)
	}
}

func TestRouterFailover(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	// Three of the requests below spend a whole down-retry budget.
	tc.router.clk = &skipClock{Virtual: clock.NewVirtual(time.Unix(0, 0))}
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("users", m)
	ver, _, _ := tc.router.Put("users", []byte("k"), []byte("v"))
	// Replicate so both hold it.
	tc.router.Apply("users", "n2", []record.Record{{Key: []byte("k"), Value: []byte("v"), Version: ver}})

	// Kill the primary: ReadAny must fail over to n2.
	tc.transport.SetDown("addr-n1", true)
	v, _, found, err := tc.router.Get("users", []byte("k"), ReadAny)
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("failover read: %q %v %v", v, found, err)
	}
	// Writes need the primary: they must fail... unless the directory
	// still lists it up but transport unreachable.
	if _, _, err := tc.router.Put("users", []byte("k2"), []byte("v2")); err == nil {
		t.Fatal("write succeeded with primary down")
	}
	// Down in the directory too: skip without calling.
	tc.dir.MarkDown("n1")
	if _, _, err := tc.router.Put("users", []byte("k3"), []byte("v3")); err == nil {
		t.Fatal("write succeeded with primary marked down")
	}
	// Both replicas down: reads fail.
	tc.dir.MarkDown("n2")
	if _, _, _, err := tc.router.Get("users", []byte("k"), ReadAny); err == nil {
		t.Fatal("read succeeded with all replicas down")
	}
}

func TestRouterScanAcrossPartitions(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	m.Split([]byte("k-50"))
	m.SetReplicas([]byte("k-99"), []string{"n2"})
	tc.router.SetMap("ns", m)

	// Load each partition's node with its share.
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("k-%02d", i))
		if _, _, err := tc.router.Put("ns", key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := tc.router.Scan("ns", []byte("k-40"), []byte("k-60"), 100, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("scan returned %d records, want 20", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) >= 0 {
			t.Fatal("cross-partition scan out of order")
		}
	}
	// Limit is respected across partitions.
	recs, err = tc.router.Scan("ns", []byte("k-40"), []byte("k-60"), 7, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("limited scan returned %d records, want 7", len(recs))
	}
	// Unbounded scans are rejected.
	if _, err := tc.router.Scan("ns", nil, nil, 0, ReadPrimary); err == nil {
		t.Fatal("unbounded scan accepted")
	}
}

func TestRouterUnknownNamespace(t *testing.T) {
	tc := newTestCluster(t, "n1")
	if _, _, _, err := tc.router.Get("ghost", []byte("k"), ReadAny); err == nil {
		t.Fatal("unknown namespace accepted")
	}
}

func TestReplicaOrderRotates(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2", "n3")
	replicas := []string{"n1", "n2", "n3"}
	seenFirst := map[string]bool{}
	for i := 0; i < 20; i++ {
		order, first := tc.router.order(replicas, ReadAny)
		if len(order) != 3 {
			t.Fatal("order lost replicas")
		}
		seenFirst[order[first]] = true
	}
	if len(seenFirst) != 3 {
		t.Fatalf("ReadAny never rotated: %v", seenFirst)
	}
	if order, first := tc.router.order(replicas, ReadPrimary); order[first] != "n1" || len(order) != 3 {
		t.Fatal("ReadPrimary does not start at primary with the rest to fail over to")
	}
	if order, first := tc.router.order(replicas, WritePrimary); order[first] != "n1" || len(order) != 1 {
		t.Fatal("WritePrimary offers more than the primary")
	}
}

func TestCompareAndSetReplicas(t *testing.T) {
	m, _ := NewMap([]string{"n1", "n2"})
	// Wrong expectation: rejected, map untouched.
	if err := m.CompareAndSetReplicas([]byte("k"), []string{"n2", "n1"}, []string{"n3"}); err != ErrReplicasChanged {
		t.Fatalf("stale CAS = %v, want ErrReplicasChanged", err)
	}
	if got := m.Lookup([]byte("k")).Replicas; got[0] != "n1" {
		t.Fatalf("stale CAS mutated the map: %v", got)
	}
	// Matching expectation: applied.
	if err := m.CompareAndSetReplicas([]byte("k"), []string{"n1", "n2"}, []string{"n3", "n1"}); err != nil {
		t.Fatal(err)
	}
	got := m.Lookup([]byte("k")).Replicas
	if len(got) != 2 || got[0] != "n3" || got[1] != "n1" {
		t.Fatalf("replicas after CAS = %v", got)
	}
	// Empty replica set still rejected.
	if err := m.CompareAndSetReplicas([]byte("k"), []string{"n3", "n1"}, nil); err != ErrNeedReplicas {
		t.Fatalf("empty CAS = %v", err)
	}
	// A second actor expecting the pre-flip set loses.
	if err := m.CompareAndSetReplicas([]byte("k"), []string{"n1", "n2"}, []string{"n2"}); err != ErrReplicasChanged {
		t.Fatalf("concurrent-loser CAS = %v", err)
	}
}

// TestGetBatchFallbackUnderCrashedNode covers the per-node-envelope
// fallback: the directory still lists the primary as up, but its
// transport is dead, so the batched read fails and every key must fall
// back to the single-key path with replica failover.
func TestGetBatchFallbackUnderCrashedNode(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("ns", m)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for i, k := range keys {
		ver, _, err := tc.router.Put("ns", k, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		// Replicate so the secondary can answer the failover read.
		if err := tc.router.Apply("ns", "n2", []record.Record{{Key: k, Value: []byte("v"), Version: ver}}); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// Crash the primary's transport without telling the directory: the
	// batch envelope to n1 errors and the fallback must recover every
	// key from n2.
	tc.transport.SetDown("addr-n1", true)
	res, err := tc.router.GetBatch("ns", keys, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Found || string(r.Value) != "v" {
			t.Fatalf("key %d after fallback: %+v", i, r)
		}
	}
}

// TestGetBatchUnroutedKeysRetryThroughGet covers the other fallback
// entry: no replica is reachable at grouping time (directory marks
// everything down), but the down-retry loop inside Get rides through a
// concurrent recovery.
func TestGetBatchUnroutedKeysRetryThroughGet(t *testing.T) {
	tc := newTestCluster(t, "n1")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	if _, _, err := tc.router.Put("ns", []byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.dir.MarkDown("n1")
	go func() {
		time.Sleep(30 * time.Millisecond)
		tc.dir.MarkUp("n1")
	}()
	res, err := tc.router.GetBatch("ns", [][]byte{[]byte("a")}, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || !res[0].Found {
		t.Fatalf("unrouted key did not recover: %+v", res[0])
	}
}

// TestWriteRetriesAcrossFailoverFlip pins the coordinator-side crash
// contract: a Put against a down primary stalls in the down-retry loop
// and succeeds as soon as a failover flip re-points the range.
func TestWriteRetriesAcrossFailoverFlip(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("ns", m)
	tc.transport.SetDown("addr-n1", true)
	tc.dir.MarkDown("n1")
	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := m.CompareAndSetReplicas([]byte("k"), []string{"n1", "n2"}, []string{"n2"}); err != nil {
			t.Error(err)
		}
	}()
	ver, replicas, err := tc.router.Put("ns", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatalf("write across failover: %v", err)
	}
	if ver == 0 || len(replicas) != 1 || replicas[0] != "n2" {
		t.Fatalf("write landed on %v", replicas)
	}
	if v, _, found, err := tc.router.Get("ns", []byte("k"), ReadPrimary); err != nil || !found || string(v) != "v" {
		t.Fatalf("read-back: %q %v %v", v, found, err)
	}
}
