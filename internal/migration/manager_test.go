package migration

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/partition"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

const testNS = "tbl_users"

// harness is a two-plus-node mini-cluster wired directly at the
// transport layer — the same pieces LocalCluster assembles, minus the
// coordinator.
type harness struct {
	t         *testing.T
	transport *lockedTransport
	dir       *cluster.Directory
	nodes     map[string]*cluster.Node
	pm        *partition.Map
	mgr       *Manager
}

func newHarness(t *testing.T, nodeIDs ...string) *harness {
	t.Helper()
	h := &harness{
		t:         t,
		transport: &lockedTransport{LocalTransport: rpc.NewLocalTransport()},
		dir:       cluster.NewDirectory(clock.NewReal()),
		nodes:     make(map[string]*cluster.Node),
	}
	for i, id := range nodeIDs {
		engine, err := storage.Open(storage.Options{NodeID: uint16(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		n := cluster.NewNode(id, engine)
		h.nodes[id] = n
		h.transport.Register("local://"+id, n)
		h.dir.Join(id, "local://"+id)
		h.dir.MarkUp(id)
	}
	pm, err := partition.NewMap([]string{nodeIDs[0]})
	if err != nil {
		t.Fatal(err)
	}
	h.pm = pm
	h.mgr = NewManager(h.transport, h.dir, func(string) (*partition.Map, bool) { return h.pm, true }, 2)
	h.transport.h = h
	return h
}

// lockedTransport is the harness's LocalTransport. Every fence install
// and range drop it carries must be sent under the lock of each current
// range it overlaps, so that no move of those ranges runs meanwhile;
// onCall, when set, sees each request before it is served.
type lockedTransport struct {
	*rpc.LocalTransport
	h      *harness
	onCall func(addr string, req rpc.Request)
}

func (lt *lockedTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if (req.Method == rpc.MethodRangeFence && req.Fence) || req.Method == rpc.MethodDropRange {
		lt.h.assertLocked(addr, req)
	}
	if lt.onCall != nil {
		lt.onCall(addr, req)
	}
	return lt.LocalTransport.Call(addr, req)
}

func (h *harness) assertLocked(addr string, req rpc.Request) {
	h.mgr.mu.Lock()
	defer h.mgr.mu.Unlock()
	for _, r := range h.pm.Overlapping(req.Start, req.End) {
		if l := h.mgr.inflight[req.Namespace+"\x00"+string(r.Start)]; l == nil || len(l.ch) != 1 {
			h.t.Errorf("%s to %s sent without the lock of range %s", req.Method, addr, r)
		}
	}
}

func (h *harness) seed(node string, n int) {
	h.t.Helper()
	ns, err := h.nodes[node].Engine().Namespace(testNS)
	if err != nil {
		h.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ns.Put(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			h.t.Fatal(err)
		}
	}
}

// to is a fixed plan: move the range to target whatever it holds.
func to(target ...string) func(partition.Range) ([]string, error) {
	return func(partition.Range) ([]string, error) { return target, nil }
}

func key(i int) []byte { return []byte(fmt.Sprintf("user%04d", i)) }

func (h *harness) liveCount(node string) int {
	h.t.Helper()
	ns, err := h.nodes[node].Engine().Namespace(testNS)
	if err != nil {
		h.t.Fatal(err)
	}
	n := 0
	if err := ns.ScanLive(nil, nil, func(record.Record) bool { n++; return true }); err != nil {
		h.t.Fatal(err)
	}
	return n
}

func (h *harness) get(node string, k []byte) ([]byte, bool) {
	h.t.Helper()
	ns, err := h.nodes[node].Engine().Namespace(testNS)
	if err != nil {
		h.t.Fatal(err)
	}
	v, ok, err := ns.Get(k)
	if err != nil {
		h.t.Fatal(err)
	}
	return v, ok
}

func TestMoveRangeCopiesFlipsAndTearsDown(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 100)

	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}

	rng := h.pm.Lookup([]byte{})
	if len(rng.Replicas) != 1 || rng.Replicas[0] != "b" {
		t.Fatalf("map not flipped: %v", rng.Replicas)
	}
	if got := h.liveCount("b"); got != 100 {
		t.Fatalf("target has %d live records, want 100", got)
	}
	if got := h.liveCount("a"); got != 0 {
		t.Fatalf("donor still has %d live records after teardown", got)
	}
	// The donor keeps a fence: a straggler write routed pre-flip must
	// bounce, not land invisibly.
	resp, err := h.transport.Call("local://a", rpc.Request{
		Method: rpc.MethodPut, Namespace: testNS, Key: key(1), Value: []byte("stray"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("stray write to donor got %v, want fence rejection", resp.Error())
	}
	st := h.mgr.Stats()
	if st.Succeeded != 1 || st.SnapshotRecords != 100 || st.CleanupPending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMoveRangeShipsWritesDuringCopy(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 50)

	// Inject writes on the donor after the snapshot baseline is taken:
	// the first delta event fires after the snapshot completed.
	injected := false
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseDelta && !injected {
			injected = true
			ns, err := h.nodes["a"].Engine().Namespace(testNS)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := ns.Put(key(7), []byte("updated-during-copy")); err != nil {
				t.Error(err)
			}
			if _, err := ns.Put(key(999), []byte("new-during-copy")); err != nil {
				t.Error(err)
			}
			if _, err := ns.Delete(key(3)); err != nil {
				t.Error(err)
			}
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("delta phase never ran")
	}
	if v, ok := h.get("b", key(7)); !ok || string(v) != "updated-during-copy" {
		t.Fatalf("update during copy lost: %q %v", v, ok)
	}
	if v, ok := h.get("b", key(999)); !ok || string(v) != "new-during-copy" {
		t.Fatalf("insert during copy lost: %q %v", v, ok)
	}
	if _, ok := h.get("b", key(3)); ok {
		t.Fatal("delete during copy resurrected on target")
	}
}

func TestMoveRangeFenceBouncesWritesBeforeFlip(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 10)

	var fencedErr error
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseFlip {
			// Fence is installed, routing not yet flipped: a write to
			// the old primary must bounce rather than be accepted and
			// lost.
			resp, err := h.transport.Call("local://a", rpc.Request{
				Method: rpc.MethodPut, Namespace: testNS, Key: key(2), Value: []byte("late"),
			})
			if err != nil {
				t.Error(err)
				return
			}
			fencedErr = resp.Error()
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if !rpc.IsFenced(fencedErr) {
		t.Fatalf("write during handoff got %v, want fence rejection", fencedErr)
	}
}

func TestMoveRangeRetriesCleanupIdempotently(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 30)

	// Fail the migration after the routing flip but before teardown:
	// the donor becomes unreachable at exactly the cleanup boundary.
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseCleanup {
			h.transport.SetDown("local://a", true)
			h.dir.MarkDown("a")
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	h.mgr.OnPhase = nil

	// The flip held and no data was lost; only teardown is pending.
	if rng := h.pm.Lookup([]byte{}); rng.Replicas[0] != "b" {
		t.Fatalf("flip lost: %v", rng.Replicas)
	}
	if got := h.liveCount("b"); got != 30 {
		t.Fatalf("target has %d records, want 30", got)
	}
	if st := h.mgr.Stats(); st.CleanupPending != 1 {
		t.Fatalf("CleanupPending = %d, want 1", st.CleanupPending)
	}
	if got := h.liveCount("a"); got != 30 {
		t.Fatalf("donor unexpectedly torn down while unreachable: %d", got)
	}

	// Donor comes back: the retry completes the teardown.
	h.transport.SetDown("local://a", false)
	h.dir.MarkUp("a")
	if remaining := h.mgr.RetryCleanups(); remaining != 0 {
		t.Fatalf("RetryCleanups left %d pending", remaining)
	}
	if got := h.liveCount("a"); got != 0 {
		t.Fatalf("donor still has %d live records after retried cleanup", got)
	}

	// Re-running the same migration is a no-op.
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}

	// And the range can migrate back onto the former donor (its
	// residual fence lifts for the new copy).
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("a")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("a"); got != 30 {
		t.Fatalf("range did not migrate back cleanly: %d records", got)
	}
}

func TestMoveRangePrimarySwapCatchesUpNewPrimary(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 20)
	// b is already a (stale, empty) secondary; promote it to primary.
	if err := h.pm.SetReplicas([]byte{}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b", "a")); err != nil {
		t.Fatal(err)
	}
	// The promoted primary holds every acknowledged write even though
	// replication never delivered them.
	if got := h.liveCount("b"); got != 20 {
		t.Fatalf("new primary has %d records, want 20", got)
	}
	rng := h.pm.Lookup([]byte{})
	if rng.Replicas[0] != "b" || len(rng.Replicas) != 2 {
		t.Fatalf("replicas = %v", rng.Replicas)
	}
	// Nobody lost the range: no fences remain anywhere.
	for _, id := range []string{"a", "b"} {
		resp, err := h.transport.Call("local://"+id, rpc.Request{Method: rpc.MethodStats})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fenced != 0 {
			t.Fatalf("node %s still holds %d fences", id, resp.Fenced)
		}
	}
}

// TestRegainedRangeSurvivesStaleCleanup: a teardown journaled while
// the loser was unreachable must not fire against that node after it
// legitimately regains the range — ownership wins over the journal.
func TestRegainedRangeSurvivesStaleCleanup(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 25)

	// Move a -> b with a crashing at the cleanup boundary: teardown of
	// a stays journaled.
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseCleanup {
			h.transport.SetDown("local://a", true)
			h.dir.MarkDown("a")
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	h.mgr.OnPhase = nil
	if st := h.mgr.Stats(); st.CleanupPending != 1 {
		t.Fatalf("CleanupPending = %d, want 1", st.CleanupPending)
	}

	// a recovers and regains the range before the cleanup ever ran.
	h.transport.SetDown("local://a", false)
	h.dir.MarkUp("a")
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("a")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("a"); got != 25 {
		t.Fatalf("regained range torn down: %d live records, want 25", got)
	}
	// The stale journal entry for a is gone; retries must not touch it.
	if remaining := h.mgr.RetryCleanups(); remaining != 0 {
		t.Fatalf("RetryCleanups left %d pending", remaining)
	}
	if got := h.liveCount("a"); got != 25 {
		t.Fatalf("RetryCleanups truncated a regained range: %d live records", got)
	}
	// And writes to the regained range flow (no stale fence).
	resp, err := h.transport.Call("local://a", rpc.Request{
		Method: rpc.MethodPut, Namespace: testNS, Key: key(1), Value: []byte("post"),
	})
	if err != nil || resp.Error() != nil {
		t.Fatalf("write to regained range: %v %v", err, resp.Error())
	}
}

// TestCleanupRetryWaitsForARegainingMove: a teardown of a, journaled
// while a was down, is retried while a move gives the range back to a
// and a already holds the move's copy. The retry waits for the move's
// range lock, then finds a owning the range and forgets the teardown;
// run at once, it fenced a and dropped the copy the move then flipped
// to, leaving no node with the range's rows.
func TestCleanupRetryWaitsForARegainingMove(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 25)
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseCleanup {
			h.transport.SetDown("local://a", true)
			h.dir.MarkDown("a")
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	h.transport.SetDown("local://a", false)
	h.dir.MarkUp("a")

	// Once the regain move's snapshot has landed on a, retry the cleanups
	// and let the move go on when the retry has finished or waits for the
	// range's lock.
	retried := make(chan int, 1)
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase != PhaseFence {
			return
		}
		if got := h.liveCount("a"); got != 25 {
			t.Errorf("a holds %d records at the fence, want the snapshot's 25", got)
		}
		go func() { retried <- h.mgr.RetryCleanups() }()
		for !h.mgr.lockWaited(testNS, nil) {
			select {
			case n := <-retried:
				retried <- n
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("a")); err != nil {
		t.Fatal(err)
	}
	if remaining := <-retried; remaining != 0 {
		t.Errorf("RetryCleanups left %d pending", remaining)
	}
	if got := h.pm.Lookup(nil).Replicas; len(got) != 1 || got[0] != "a" {
		t.Fatalf("map reads %v, want [a]", got)
	}
	if a, b := h.liveCount("a"), h.liveCount("b"); a != 25 || b != 0 {
		t.Fatalf("a holds %d records and b %d, want 25 and 0", a, b)
	}
	resp, err := h.transport.Call("local://a", rpc.Request{
		Method: rpc.MethodPut, Namespace: testNS, Key: key(1), Value: []byte("post"),
	})
	if err != nil || resp.Error() != nil {
		t.Fatalf("write to the regained range: %v %v", err, resp.Error())
	}
}

// lockWaited reports whether a second taker waits for the lock of the
// range of namespace starting at start.
func (m *Manager) lockWaited(namespace string, start []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.inflight[namespace+"\x00"+string(start)]
	return l != nil && l.refs > 1
}

// TestRegainAfterSplitLiftsResidualFence: a node that lost [ -inf,
// +inf ) keeps a fence with those bounds; when it later regains only
// the left half of a since-split keyspace, the unfence-by-subtraction
// must open exactly that half.
func TestRegainAfterSplitLiftsResidualFence(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 40)
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	// a now holds a permanent fence over the whole keyspace. Split,
	// then migrate only the left half back onto a.
	if err := h.pm.Split(key(20)); err != nil {
		t.Fatal(err)
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("a")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("a"); got != 20 {
		t.Fatalf("left half not installed on a: %d live records, want 20", got)
	}
	// Writes to the regained left half flow; the right half (still
	// owned by b) stays fenced on a.
	left, err := h.transport.Call("local://a", rpc.Request{
		Method: rpc.MethodPut, Namespace: testNS, Key: key(5), Value: []byte("v"),
	})
	if err != nil || left.Error() != nil {
		t.Fatalf("write to regained left half: %v %v", err, left.Error())
	}
	right, err := h.transport.Call("local://a", rpc.Request{
		Method: rpc.MethodPut, Namespace: testNS, Key: key(30), Value: []byte("v"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpc.IsFenced(right.Error()) {
		t.Fatalf("right half write on a = %v, want fence rejection", right.Error())
	}
}

// TestRangeLargerThanOnePageMigrates: a range of many donor pages
// migrates completely — every page but the last flags More.
func TestRangeLargerThanOnePageMigrates(t *testing.T) {
	h := newHarness(t, "a", "b")
	const n = 12000 // more than one page even at the node's record cap
	ns, err := h.nodes["a"].Engine().Namespace(testNS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("user%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("b"); got != n {
		t.Fatalf("snapshot truncated: target has %d records, want %d", got, n)
	}
}

// seedBig installs n records of valSize bytes each on node, so the
// range totals well past the node-side 4 MiB page byte budgets.
func (h *harness) seedBig(node string, n, valSize int) {
	h.t.Helper()
	ns, err := h.nodes[node].Engine().Namespace(testNS)
	if err != nil {
		h.t.Fatal(err)
	}
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < n; i++ {
		if _, err := ns.Put(key(i), val); err != nil {
			h.t.Fatal(err)
		}
	}
}

// TestMoveRangeBigValuesPagesByBytes: a range whose records are large
// forces the donor's snapshot (and any delta) pages to stop at the
// byte budget. The manager must keep paging on resp.More — mistaking
// a short-by-bytes page for the end of the range would truncate the
// copy and then tear down the donor.
func TestMoveRangeBigValuesPagesByBytes(t *testing.T) {
	h := newHarness(t, "a", "b")
	const count, valSize = 30, 256 << 10 // ~7.5 MiB, budget 4 MiB
	h.seedBig("a", count, valSize)

	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("b"); got != count {
		t.Fatalf("target has %d live records, want %d (byte-budget paging lost the tail)", got, count)
	}
	ns, err := h.nodes["b"].Engine().Namespace(testNS)
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.ScanLive(nil, nil, func(r record.Record) bool {
		if len(r.Value) != valSize {
			t.Fatalf("record %q value %d bytes, want %d", r.Key, len(r.Value), valSize)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// interceptor wraps a node's handler, letting a test rewrite the
// response of selected methods.
type interceptor struct {
	next rpc.Handler
	hook func(req rpc.Request, resp rpc.Response) rpc.Response
}

func (i *interceptor) Serve(req rpc.Request) rpc.Response {
	return i.hook(req, i.next.Serve(req))
}

// TestDeltaSnapshotGapTriggersResnapshot: a donor whose delta log aged
// out answers MethodRangeDelta with ErrSnapshotGap *in resp.Err*. The
// manager must materialise that wire error and restart from a fresh
// snapshot — not mistake the empty errored page for a converged delta.
func TestDeltaSnapshotGapTriggersResnapshot(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 50)

	gaps := 0
	h.transport.Register("local://a", &interceptor{
		next: h.nodes["a"],
		hook: func(req rpc.Request, resp rpc.Response) rpc.Response {
			if req.Method == rpc.MethodRangeDelta && gaps == 0 {
				gaps++
				return rpc.Response{ID: req.ID, Err: rpc.ErrString(rpc.ErrSnapshotGap)}
			}
			return resp
		},
	})

	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if gaps != 1 {
		t.Fatalf("gap hook fired %d times, want 1", gaps)
	}
	if got := h.liveCount("b"); got != 50 {
		t.Fatalf("target has %d live records after resnapshot, want 50", got)
	}
	if st := h.mgr.Stats(); st.Resnapshots != 1 {
		t.Fatalf("stats = %+v, want Resnapshots=1", st)
	}
}

// TestSnapshotErrorFailsMigration: a semantic error in a snapshot page
// response must abort the migration — before this check, an errored
// page decoded as empty and terminal, and the flip+teardown proceeded
// with a truncated copy.
func TestSnapshotErrorFailsMigration(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 50)

	h.transport.Register("local://a", &interceptor{
		next: h.nodes["a"],
		hook: func(req rpc.Request, resp rpc.Response) rpc.Response {
			if req.Method == rpc.MethodRangeSnapshot && req.Limit >= 0 {
				return rpc.Response{ID: req.ID, Err: "storage: scan failed"}
			}
			return resp
		},
	})

	err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b"))
	if err == nil {
		t.Fatal("migration succeeded over an erroring snapshot")
	}
	rng := h.pm.Lookup([]byte{})
	if len(rng.Replicas) != 1 || rng.Replicas[0] != "a" {
		t.Fatalf("map flipped despite failed snapshot: %v", rng.Replicas)
	}
	if got := h.liveCount("a"); got != 50 {
		t.Fatalf("donor lost records on failed migration: %d", got)
	}
}

// TestMoveRangeTerminatesUnderOtherRangeChurn: after a split, moving
// one range while the donor's *other* range of the same namespace
// takes continuous writes. Those writes advance the namespace delta
// watermark on every page, so any termination rule based on watermark
// progress (or on short pages alone, with byte-capped pages in play)
// would spin the delta loop — with the fence up — until the churn
// stops. The manager must page exactly while the node reports More.
func TestMoveRangeTerminatesUnderOtherRangeChurn(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 40)
	if err := h.pm.Split(key(20)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		ns, err := h.nodes["a"].Engine().Namespace(testNS)
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Writes stay in [user0000, user0020) — the range NOT
			// being moved — but share the namespace apply log.
			ns.Put(key(i%20), []byte("churn")) //nolint:errcheck
		}
	}()

	done := make(chan error, 1)
	go func() { done <- h.mgr.MoveRange(h.pm, testNS, key(20), to("b")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MoveRange still running after 30s under other-range churn (delta loop livelock)")
	}
	close(stop)
	<-churned

	rng := h.pm.Lookup(key(20))
	if len(rng.Replicas) != 1 || rng.Replicas[0] != "b" {
		t.Fatalf("map not flipped: %v", rng.Replicas)
	}
}

// TestMoveRangeRefusesATargetNotUp: a target that adds a down or a
// draining node is refused before anything moves, while a draining
// current holder still serves as the donor of its range's move away.
func TestMoveRangeRefusesATargetNotUp(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.seed("a", 20)

	h.dir.MarkDown("b")
	h.dir.Drain("c", true)
	for _, target := range []string{"b", "c"} {
		if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("a", target)); !errors.Is(err, ErrTargetDown) {
			t.Fatalf("move adding %s: err = %v, want ErrTargetDown", target, err)
		}
	}
	if st := h.mgr.Stats(); st.Started != 0 {
		t.Fatalf("a refused move started: %+v", st)
	}

	// Draining the holder leaves its reads and its donor role alone.
	h.dir.MarkUp("b")
	h.dir.Drain("a", true)
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("b"); got != 20 {
		t.Fatalf("target has %d records, want 20", got)
	}
}

// TestMoveRangeTargetDownAtCatchUp: a target node that goes down after
// the plan, once the move has begun, fails it at catch-up with the
// same ErrTargetDown as a plan refused up front, and the range keeps
// its replicas.
func TestMoveRangeTargetDownAtCatchUp(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 20)
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("a", "b")); err != nil {
		t.Fatal(err)
	}

	// Promoting b adds no node, so only the catch-up meets it down.
	err := h.mgr.MoveRange(h.pm, testNS, []byte{}, func(partition.Range) ([]string, error) {
		h.dir.MarkDown("b")
		return []string{"b", "a"}, nil
	})
	if !errors.Is(err, ErrTargetDown) {
		t.Fatalf("err = %v, want ErrTargetDown", err)
	}
	if got := h.pm.Lookup([]byte{}).Replicas; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replicas = %v, want [a b] kept", got)
	}
	if st := h.mgr.Stats(); st.Started != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want the second move started and failed", st)
	}
}

// TestMoveRangePlansUnderTheRangeLock: a second mover of a range plans
// only once the first has flipped, on the replicas the first installed,
// and a plan that keeps them moves and counts nothing.
func TestMoveRangePlansUnderTheRangeLock(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 20)

	gate := make(chan struct{})
	held := make(chan struct{})
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseSnapshot {
			close(held)
			<-gate
		}
	}
	first := make(chan error, 1)
	go func() { first <- h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")) }()
	<-held

	seen := make(chan []string, 1)
	second := make(chan error, 1)
	go func() {
		second <- h.mgr.MoveRange(h.pm, testNS, []byte{}, func(rng partition.Range) ([]string, error) {
			seen <- rng.Replicas
			return rng.Replicas, nil
		})
	}()
	select {
	case got := <-seen:
		t.Fatalf("second plan ran on %v while the first move held the range", got)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if got := <-seen; len(got) != 1 || got[0] != "b" {
		t.Fatalf("second plan saw %v, want the first move's [b]", got)
	}
	if st := h.mgr.Stats(); st.Started != 1 || st.Succeeded != 1 {
		t.Fatalf("stats = %+v, want one move counted", st)
	}
}

// TestFencedHandoffIsOneCall: between the fence and the flip the
// primary gets one call, the fence install, and its answer carries a
// write acked just before the fence.
func TestFencedHandoffIsOneCall(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 50)

	fenced, calls := false, 0
	h.mgr.OnPhase = func(ev Event) {
		switch ev.Phase {
		case PhaseFence:
			ns, err := h.nodes["a"].Engine().Namespace(testNS)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := ns.Put(key(7), []byte("just-before-the-fence")); err != nil {
				t.Error(err)
			}
			fenced = true
		case PhaseFlip:
			fenced = false
		}
	}
	h.transport.onCall = func(addr string, req rpc.Request) {
		if fenced && addr == "local://a" {
			calls++
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("the primary got %d calls between fence and flip, want 1", calls)
	}
	if v, ok := h.get("b", key(7)); !ok || string(v) != "just-before-the-fence" {
		t.Fatalf("write acked before the fence reads %q %v on the new primary", v, ok)
	}
}

// TestFenceAnswerPagesUnderTheFence: a final delta larger than one page
// arrives whole — each More page re-sends the install from the advanced
// watermark, and the node still holds one fence.
func TestFenceAnswerPagesUnderTheFence(t *testing.T) {
	h := newHarness(t, "a", "b")
	h.seed("a", 10)
	const late = 3 * pageRecords / 2
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase == PhaseFence {
			h.seed("a", late)
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); err != nil {
		t.Fatal(err)
	}
	if got := h.liveCount("b"); got != late {
		t.Fatalf("target has %d live records, want %d", got, late)
	}
	if st := h.mgr.Stats(); st.DeltaRecords < late {
		t.Fatalf("DeltaRecords = %d, want at least %d", st.DeltaRecords, late)
	}
	resp, err := h.transport.Call("local://a", rpc.Request{Method: rpc.MethodStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fenced != 1 {
		t.Fatalf("old primary holds %d fences, want 1", resp.Fenced)
	}
}

// fenceAnswerFails fails the first fence install it carries after the
// node has installed it, with a transport error or with the error resp
// carries.
type fenceAnswerFails struct {
	rpc.Transport
	err    error
	resp   rpc.Response
	failed bool
}

func (f *fenceAnswerFails) Call(addr string, req rpc.Request) (rpc.Response, error) {
	resp, err := f.Transport.Call(addr, req)
	if req.Method == rpc.MethodRangeFence && req.Fence && !f.failed {
		f.failed = true
		return f.resp, f.err
	}
	return resp, err
}

// TestFenceAnswerLostLiftsFence: a fence install whose answer is lost,
// or carries a snapshot gap, fails the move, and the move lifts the
// fence the primary installed — it still owns the range.
func TestFenceAnswerLostLiftsFence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fails *fenceAnswerFails
		want  func(error) bool
	}{
		{"lost", &fenceAnswerFails{err: rpc.ErrUnreachable}, func(err error) bool { return errors.Is(err, rpc.ErrUnreachable) }},
		{"gap", &fenceAnswerFails{resp: rpc.Response{Err: rpc.ErrString(rpc.ErrSnapshotGap)}}, rpc.IsSnapshotGap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, "a", "b")
			h.seed("a", 20)
			tc.fails.Transport = h.transport
			h.mgr.transport = tc.fails
			if err := h.mgr.MoveRange(h.pm, testNS, []byte{}, to("b")); !tc.want(err) {
				t.Fatalf("err = %v", err)
			}
			if got := h.pm.Lookup(nil).Replicas; len(got) != 1 || got[0] != "a" {
				t.Fatalf("map reads %v, want [a]", got)
			}
			st, err := h.transport.Call("local://a", rpc.Request{Method: rpc.MethodStats})
			if err != nil {
				t.Fatal(err)
			}
			if st.Fenced != 0 {
				t.Fatalf("a holds %d fences after the failed move", st.Fenced)
			}
			resp, err := h.transport.Call("local://a", rpc.Request{
				Method: rpc.MethodPut, Namespace: testNS, Key: key(1), Value: []byte("post"),
			})
			if err != nil || resp.Error() != nil {
				t.Fatalf("write to a after the failed move: %v %v", err, resp.Error())
			}
		})
	}
}

// TestFlipRefusesASetThatChangedBack: a range whose set goes [a b] →
// [a c] → [a b] between a move's plan and its flip is not the range the
// move planned against, though its set reads the same. The flip is
// refused, the primary's fence lifts, and the move planned again from
// the range as it stands succeeds.
func TestFlipRefusesASetThatChangedBack(t *testing.T) {
	h := newHarness(t, "a", "b", "c", "d")
	h.seed("a", 20)
	if err := h.pm.SetReplicas(nil, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	h.mgr.OnPhase = func(ev Event) {
		if ev.Phase != PhaseFlip {
			return
		}
		for _, set := range [][]string{{"a", "c"}, {"a", "b"}} {
			if err := h.pm.SetReplicas(nil, set); err != nil {
				t.Error(err)
			}
		}
	}
	if err := h.mgr.MoveRange(h.pm, testNS, nil, to("a", "d")); !errors.Is(err, partition.ErrReplicasChanged) {
		t.Fatalf("MoveRange = %v, want ErrReplicasChanged", err)
	}
	h.mgr.OnPhase = nil
	if got := h.pm.Lookup(nil).Replicas; fmt.Sprint(got) != "[a b]" {
		t.Fatalf("map reads %v after the refused flip, want [a b]", got)
	}
	if st := h.nodes["a"].Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 0 {
		t.Fatalf("a holds %d fences after the refused flip", st.Fenced)
	}
	if err := h.mgr.MoveRange(h.pm, testNS, nil, to("a", "d")); err != nil {
		t.Fatalf("re-planned move: %v", err)
	}
	if got := h.pm.Lookup(nil).Replicas; fmt.Sprint(got) != "[a d]" {
		t.Fatalf("map reads %v after the re-planned move, want [a d]", got)
	}
	if n := h.liveCount("d"); n != 20 {
		t.Fatalf("d holds %d records, want 20", n)
	}
}
