package repair_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/migration"
	"scads/internal/partition"
	"scads/internal/record"
	"scads/internal/repair"
	"scads/internal/replication"
	"scads/internal/rpc"
	"scads/internal/storage"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

// fixture is a miniature coordinator: real directory, transport,
// router, migration manager and replication pump over in-memory
// storage nodes — everything the repair manager touches, none of the
// public API (the root package imports repair, so tests here cannot
// import it back).
type fixture struct {
	t      *testing.T
	clk    *clock.Virtual
	lt     *rpc.LocalTransport
	dir    *cluster.Directory
	router *partition.Router
	mig    *migration.Manager
	pump   *replication.Pump
	mgr    *repair.Manager
	nodes  map[string]*cluster.Node

	mu     sync.Mutex
	events []repair.Event
}

func newFixture(t *testing.T, n, rf int, cfg repair.Config) *fixture {
	t.Helper()
	f := &fixture{t: t, clk: clock.NewVirtual(t0), nodes: make(map[string]*cluster.Node)}
	f.lt = rpc.NewLocalTransport()
	f.dir = cluster.NewDirectory(f.clk)
	f.router = partition.NewRouter(f.lt, f.dir)
	f.mig = migration.NewManager(f.lt, f.dir, f.router.Map, 2)
	queue := replication.NewQueue(replication.ByDeadline)
	f.pump = replication.NewPump(queue, f.router.Apply, f.router.Map, f.clk)
	var ids []string
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		engine, err := storage.Open(storage.Options{NodeID: uint16(i), Clock: f.clk})
		if err != nil {
			t.Fatal(err)
		}
		node := cluster.NewNode(id, engine)
		f.nodes[id] = node
		f.lt.Register("local://"+id, node)
		f.dir.Join(id, "local://"+id)
		f.dir.MarkUp(id)
		ids = append(ids, id)
	}
	if rf > n {
		rf = n
	}
	m, err := partition.NewMap(ids[:rf])
	if err != nil {
		t.Fatal(err)
	}
	f.router.SetMap("ns", m)
	f.mgr = repair.NewManager(cfg, f.clk, f.dir, f.lt, f.router, f.mig, f.pump, rf)
	f.mgr.OnEvent = func(ev repair.Event) {
		f.mu.Lock()
		f.events = append(f.events, ev)
		f.mu.Unlock()
	}
	return f
}

// sweep runs one Sweep and then, one after another, the jobs it
// returned, as RepairNow does.
func (f *fixture) sweep() {
	for _, job := range f.mgr.Sweep() {
		job()
	}
}

// runLoop runs sweep every SweepInterval under clock.Loop on the
// fixture's virtual clock, as the coordinator's background driver
// does, and returns the function that stops the loop and waits for it.
func (f *fixture) runLoop() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		clock.Loop(f.clk, quit, f.mgr.SweepInterval(), func() time.Duration {
			f.sweep()
			return f.mgr.SweepInterval()
		})
	}()
	return func() {
		close(quit)
		<-done
	}
}

// step lets the loop run n sweeps, one interval of virtual time each,
// and returns once the last has finished.
func (f *fixture) step(n int) {
	for range n {
		f.clk.BlockUntilWaiters(1)
		f.clk.Advance(f.mgr.SweepInterval())
	}
	f.clk.BlockUntilWaiters(1)
}

func (f *fixture) crash(id string)   { f.lt.SetDown("local://"+id, true) }
func (f *fixture) recover(id string) { f.lt.SetDown("local://"+id, false) }

// set is the published replica set of key's range: what a coordinator
// passes to Enqueue for a write that range's primary acked.
func (f *fixture) set(key string) []string {
	m, _ := f.router.Map("ns")
	return m.Lookup([]byte(key)).Replicas
}

func (f *fixture) replicas() []string {
	m, _ := f.router.Map("ns")
	return m.Ranges()[0].Replicas
}

// put applies a record with the given version to each named node.
func (f *fixture) put(key string, version uint64, nodes ...string) {
	f.t.Helper()
	rec := record.Record{Key: []byte(key), Value: []byte("v"), Version: version}
	for _, id := range nodes {
		if err := f.router.Apply("ns", id, []record.Record{rec}); err != nil {
			f.t.Fatalf("apply %s to %s: %v", key, id, err)
		}
	}
}

// missWrite writes key at version to its range's primary, and has the
// pump give up on the delivery to member, whose replication link is
// severed meanwhile.
func (f *fixture) missWrite(key string, version uint64, member string) {
	f.t.Helper()
	f.pump.MaxAttempts = 1
	set := f.set(key)
	f.put(key, version, set[0])
	f.lt.SetApplyDown("local://"+member, true)
	f.pump.Enqueue("ns", record.Record{Key: []byte(key), Value: []byte("v"), Version: version}, set, time.Second)
	for f.pump.Drain(10) > 0 {
	}
	f.lt.SetApplyDown("local://"+member, false)
}

// split divides "ns" at key; both halves keep the range's replicas.
func (f *fixture) split(key string) *partition.Map {
	f.t.Helper()
	m, _ := f.router.Map("ns")
	if err := m.Split([]byte(key)); err != nil {
		f.t.Fatal(err)
	}
	return m
}

// holds fails the test unless node holds key at version.
func (f *fixture) holds(node, key string, version uint64) {
	f.t.Helper()
	ns, err := f.nodes[node].Engine().Namespace("ns")
	if err != nil {
		f.t.Fatal(err)
	}
	if rec, ok, _ := ns.GetRecord([]byte(key)); !ok || rec.Version != version {
		f.t.Fatalf("%s holds %q as ok=%v %+v, want version %d", node, key, ok, rec, version)
	}
}

func (f *fixture) eventKinds() []repair.EventKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]repair.EventKind, len(f.events))
	for i, ev := range f.events {
		out[i] = ev.Kind
	}
	return out
}

// wantKinds fails the test unless the events emitted so far are exactly
// want, in order.
func (f *fixture) wantKinds(want ...repair.EventKind) {
	f.t.Helper()
	if got := f.eventKinds(); !slices.Equal(got, want) {
		f.t.Fatalf("events = %v, want %v", got, want)
	}
}

func (f *fixture) countKind(k repair.EventKind) int {
	n := 0
	for _, got := range f.eventKinds() {
		if got == k {
			n++
		}
	}
	return n
}

// TestDetectorFlapping drives down → heartbeat-back → down through
// ExpireStale on the fake clock and checks each transition is observed
// exactly once.
func TestDetectorFlapping(t *testing.T) {
	f := newFixture(t, 2, 1, repair.Config{HeartbeatTimeout: 10 * time.Second})
	f.sweep() // baseline: everyone heartbeats, no events
	if st := f.mgr.Stats(); st.NodesDown != 0 || st.NodesUp != 0 {
		t.Fatalf("baseline transitions: %+v", st)
	}

	// n2 goes silent: after the timeout the sweep expires it.
	f.crash("n2")
	f.clk.Advance(11 * time.Second)
	f.sweep()
	if st := f.mgr.Stats(); st.NodesDown != 1 {
		t.Fatalf("NodesDown = %d after expiry, want 1", st.NodesDown)
	}
	if m, _ := f.dir.Get("n2"); m.Status != cluster.StatusDown {
		t.Fatalf("n2 status = %v, want down", m.Status)
	}

	// It heartbeats back: the probe resurrects it.
	f.recover("n2")
	f.sweep()
	if st := f.mgr.Stats(); st.NodesUp != 1 {
		t.Fatalf("NodesUp = %d after return, want 1", st.NodesUp)
	}
	if m, _ := f.dir.Get("n2"); m.Status != cluster.StatusUp {
		t.Fatalf("n2 status = %v, want up", m.Status)
	}

	// And goes silent again.
	f.crash("n2")
	f.clk.Advance(11 * time.Second)
	f.sweep()
	if st := f.mgr.Stats(); st.NodesDown != 2 || st.NodesUp != 1 {
		t.Fatalf("after flap: down=%d up=%d, want 2/1", st.NodesDown, st.NodesUp)
	}
}

// TestExpireBoundary pins the sweep-interval edge case: a heartbeat
// exactly timeout-old is NOT expired (ExpireStale is strictly older
// than), one instant past it is.
func TestExpireBoundary(t *testing.T) {
	f := newFixture(t, 1, 1, repair.Config{HeartbeatTimeout: 10 * time.Second})
	f.sweep()     // heartbeat at t0
	f.crash("n1") // silence the probe without marking anything

	f.clk.Advance(10 * time.Second)
	f.sweep()
	if m, _ := f.dir.Get("n1"); m.Status != cluster.StatusUp {
		t.Fatalf("expired at exactly the timeout; want up")
	}
	f.clk.Advance(1)
	f.sweep()
	if m, _ := f.dir.Get("n1"); m.Status != cluster.StatusDown {
		t.Fatalf("not expired just past the timeout")
	}
}

// TestRunSweepsOnFakeClock checks that clock.Loop paces sweeps on the
// injected clock: none before an interval of virtual time has passed,
// one for each interval after, and none once the loop is stopped.
// Virtual time is the only thing that moves the loop: BlockUntilWaiters
// returns once the loop has finished a sweep and waits for the next.
func TestRunSweepsOnFakeClock(t *testing.T) {
	f := newFixture(t, 1, 1, repair.Config{SweepInterval: 100 * time.Millisecond})
	stop := f.runLoop()

	f.clk.BlockUntilWaiters(1)
	f.clk.Advance(99 * time.Millisecond)
	if got := f.mgr.Stats().Sweeps; got != 0 {
		t.Fatalf("sweeps after partial interval = %d, want 0", got)
	}
	f.clk.Advance(time.Millisecond)
	for want := int64(1); want <= 3; want++ {
		f.clk.BlockUntilWaiters(1)
		if got := f.mgr.Stats().Sweeps; got != want {
			t.Fatalf("sweeps = %d, want %d", got, want)
		}
		f.clk.Advance(100 * time.Millisecond)
	}
	f.clk.BlockUntilWaiters(1)

	stop()
	f.clk.Advance(time.Second)
	if got := f.mgr.Stats().Sweeps; got != 4 {
		t.Fatalf("sweeps after stop = %d, want the 4 before it", got)
	}
}

// TestCrashReplaysOnVirtualClock runs RF 2 through crash → detect →
// failover → re-replicate with nothing but virtual time driving the
// sweep loop, twice, and requires both runs to emit the same events
// and end with the same Stats and replicas.
func TestCrashReplaysOnVirtualClock(t *testing.T) {
	run := func() (events []string, st repair.Stats, replicas []string) {
		f := newFixture(t, 3, 2, repair.Config{
			HeartbeatTimeout: time.Second,
			SweepInterval:    100 * time.Millisecond,
			ReplaceAfter:     500 * time.Millisecond,
		})
		f.put("a", 100, "n1", "n2")
		stop := f.runLoop()
		f.step(3)
		f.crash("n1")
		f.step(20)
		stop()
		ns, err := f.nodes["n3"].Engine().Namespace("ns")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := ns.GetRecord([]byte("a")); !ok {
			t.Fatal("re-replicated n3 missing the record")
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, ev := range f.events {
			events = append(events, fmt.Sprintf("%s %s %v %v", ev.Kind, ev.Node, ev.Replicas, ev.Err))
		}
		return events, f.mgr.Stats(), f.replicas()
	}
	events, st, replicas := run()
	want := []string{"node-down n1 [] <nil>", "failover n1 [n2 n1] <nil>",
		"repair-start  [n2 n3] <nil>", "repair-done  [n2 n3] <nil>"}
	if !slices.Equal(events, want) {
		t.Fatalf("events = %q, want %q", events, want)
	}
	if !slices.Equal(replicas, []string{"n2", "n3"}) {
		t.Fatalf("replicas = %v, want [n2 n3]", replicas)
	}
	again, st2, replicas2 := run()
	if !slices.Equal(again, events) || st2 != st || !slices.Equal(replicas2, replicas) {
		t.Fatalf("replay differs:\n%q %+v %v\n%q %+v %v", events, st, replicas, again, st2, replicas2)
	}
}

// TestFailoverPromotesFreshestSurvivor crashes a primary and checks
// the promoted replica is the one with the highest accepted record
// version, not simply the next in line.
func TestFailoverPromotesFreshestSurvivor(t *testing.T) {
	f := newFixture(t, 3, 3, repair.Config{HeartbeatTimeout: 10 * time.Second})
	f.put("a", 100, "n1", "n2", "n3")
	f.put("b", 200, "n1", "n3") // n3 is fresher than n2

	f.crash("n1")
	f.dir.MarkDown("n1")
	f.sweep()

	// Freshest survivor first; the dead ex-primary is kept at the tail
	// (it still holds a copy — if both survivors die and it returns, it
	// must be promotable rather than the range going dark).
	got := f.replicas()
	if len(got) != 3 || got[0] != "n3" || got[1] != "n2" || got[2] != "n1" {
		t.Fatalf("replicas after failover = %v, want [n3 n2 n1]", got)
	}
	if st := f.mgr.Stats(); st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if f.countKind(repair.EventFailover) != 1 {
		t.Fatalf("events: %v", f.eventKinds())
	}
}

// TestUnavailableRangeReported: no live replica → one unavailable
// event, gauge set; recovery clears it and resurrects service.
func TestUnavailableRangeReported(t *testing.T) {
	f := newFixture(t, 1, 1, repair.Config{HeartbeatTimeout: 10 * time.Second})
	f.crash("n1")
	f.dir.MarkDown("n1")
	f.sweep()
	f.sweep() // second sweep must not re-emit
	if st := f.mgr.Stats(); st.RangesUnavailable != 1 {
		t.Fatalf("RangesUnavailable = %d, want 1", st.RangesUnavailable)
	}
	if n := f.countKind(repair.EventUnavailable); n != 1 {
		t.Fatalf("unavailable events = %d, want 1 (deduplicated)", n)
	}
	f.recover("n1")
	f.sweep()
	if st := f.mgr.Stats(); st.RangesUnavailable != 0 {
		t.Fatalf("RangesUnavailable after recovery = %d, want 0", st.RangesUnavailable)
	}
}

// TestRFRepairReplacesDeadReplicaAfterGrace: a down secondary is
// replaced with a spare only after ReplaceAfter, and the spare holds a
// complete copy.
func TestRFRepairReplacesDeadReplicaAfterGrace(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     5 * time.Second,
	})
	f.put("a", 100, "n1", "n2")
	f.put("b", 200, "n1", "n2")

	f.crash("n2")
	f.dir.MarkDown("n2")
	f.sweep()
	if got := f.replicas(); len(got) != 2 || got[1] != "n2" {
		t.Fatalf("replaced before grace: %v", got)
	}

	f.clk.Advance(6 * time.Second)
	f.sweep()
	got := f.replicas()
	if len(got) != 2 || got[0] != "n1" || got[1] != "n3" {
		t.Fatalf("replicas after replacement = %v, want [n1 n3]", got)
	}
	// The replacement holds every record.
	for _, key := range []string{"a", "b"} {
		ns, err := f.nodes["n3"].Engine().Namespace("ns")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := ns.GetRecord([]byte(key)); !ok {
			t.Fatalf("replacement n3 missing %q", key)
		}
	}
	if st := f.mgr.Stats(); st != (repair.Stats{
		Sweeps: 2, NodesDown: 1, RepairsStarted: 1, RepairsDone: 1,
	}) {
		t.Fatalf("stats = %+v", st)
	}
	f.wantKinds(repair.EventNodeDown, repair.EventRepairStart, repair.EventRepairDone)
}

// TestAntiFlapHoldsBeforeGrace: a node that returns before the grace
// triggers no repair at all — membership is untouched and no migration
// ran.
func TestAntiFlapHoldsBeforeGrace(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     5 * time.Second,
	})
	f.crash("n2")
	f.dir.MarkDown("n2")
	f.sweep()
	f.clk.Advance(2 * time.Second) // still inside the grace
	f.sweep()
	f.recover("n2")
	f.sweep()
	if got := f.replicas(); len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("flap changed membership: %v", got)
	}
	if st := f.mgr.Stats(); st.RepairsStarted != 0 || st.Demotions != 0 {
		t.Fatalf("flap triggered repairs: %+v", st)
	}
}

// TestStaleReturnDemotedAndRejoins: deliveries to a down secondary are
// abandoned (pump drops), so on return it is demoted and immediately
// re-added through a full catch-up — and ends up holding the write it
// missed.
func TestStaleReturnDemotedAndRejoins(t *testing.T) {
	f := newFixture(t, 2, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour, // rejoin must not wait for any grace
	})
	f.pump.MaxAttempts = 1
	f.put("a", 100, "n1", "n2")

	f.crash("n2")
	f.dir.MarkDown("n2")
	f.sweep()

	// A write lands on the primary; its replication to n2 is dropped.
	f.put("b", 200, "n1")
	f.pump.Enqueue("ns", record.Record{Key: []byte("b"), Value: []byte("v"), Version: 200}, f.set("b"), time.Second)
	if n := f.pump.Drain(10); n != 1 {
		t.Fatalf("drained %d", n)
	}
	if f.pump.Stats().Dropped != 1 {
		t.Fatalf("expected a dropped delivery to n2")
	}

	f.recover("n2")
	f.sweep()
	if st := f.mgr.Stats(); st != (repair.Stats{
		Sweeps: 2, NodesDown: 1, NodesUp: 1, Demotions: 1,
		RepairsStarted: 1, RepairsDone: 1, Rejoins: 1, UnderReplicated: 1,
	}) {
		t.Fatalf("stats = %+v", st)
	}
	f.wantKinds(repair.EventNodeDown, repair.EventNodeUp, repair.EventDemote,
		repair.EventRepairStart, repair.EventRepairDone)
	if got := f.replicas(); len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("replicas after rejoin = %v", got)
	}
	ns, err := f.nodes["n2"].Engine().Namespace("ns")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, _ := ns.GetRecord([]byte("b"))
	if !ok || rec.Version != 200 {
		t.Fatalf("rejoined n2 missing the dropped write: ok=%v rec=%+v", ok, rec)
	}
}

// TestResurrectionMidRepair: the down secondary heartbeats back while
// its replacement migration is mid-flight. The migration commits to
// its target; the loop then treats the returned node as a spare, and
// its stale copy is torn down by the journaled cleanup — no wrong
// membership, no stranded data.
func TestResurrectionMidRepair(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Millisecond,
	})
	f.put("a", 100, "n1", "n2")

	var once sync.Once
	f.mig.OnPhase = func(ev migration.Event) {
		if ev.Phase == migration.PhaseSnapshot {
			once.Do(func() {
				f.recover("n2")
				f.dir.Heartbeat("n2")
			})
		}
	}

	f.crash("n2")
	f.dir.MarkDown("n2")
	f.sweep()                  // observe the down transition
	f.clk.Advance(time.Second) // past the tiny grace
	f.sweep()                  // schedules the replacement
	got := f.replicas()
	if len(got) != 2 || got[0] != "n1" || got[1] != "n3" {
		t.Fatalf("replicas = %v, want [n1 n3]", got)
	}
	// The next sweep observes n2's up transition, and the journaled
	// teardown of its copy is retried now that it is reachable.
	f.sweep()
	ns, err := f.nodes["n2"].Engine().Namespace("ns")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ns.GetRecord([]byte("a")); ok {
		t.Fatal("stale copy on resurrected n2 never torn down")
	}
	if st := f.mgr.Stats(); st.RepairsDone < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFailoverThenRejoin: the crashed primary returns after failover.
// Deliveries to it were abandoned while it was away, so the sweep at
// its return demotes it and the rejoin path rebuilds its copy — which
// ends up holding the write it missed.
func TestFailoverThenRejoin(t *testing.T) {
	f := newFixture(t, 2, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.pump.MaxAttempts = 1
	f.put("a", 100, "n1", "n2")

	f.crash("n1")
	f.dir.MarkDown("n1")
	f.sweep()
	// Promoted survivor first, dead ex-primary kept at the tail.
	if got := f.replicas(); len(got) != 2 || got[0] != "n2" || got[1] != "n1" {
		t.Fatalf("replicas after failover = %v, want [n2 n1]", got)
	}

	// A write lands on the promoted primary while n1 is away; its
	// replication to the dead tail member is abandoned.
	f.put("b", 200, "n2")
	f.pump.Enqueue("ns", record.Record{Key: []byte("b"), Value: []byte("v"), Version: 200}, f.set("b"), time.Second)
	if n := f.pump.Drain(10); n != 1 {
		t.Fatalf("drained %d", n)
	}
	if f.pump.Stats().Dropped != 1 {
		t.Fatal("expected the delivery to dead n1 to be dropped")
	}

	f.recover("n1")
	f.sweep()
	got := f.replicas()
	if len(got) != 2 || got[0] != "n2" || got[1] != "n1" {
		t.Fatalf("replicas after rejoin = %v, want [n2 n1]", got)
	}
	ns, err := f.nodes["n1"].Engine().Namespace("ns")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ns.GetRecord([]byte("b")); !ok {
		t.Fatal("rejoined n1 missing the write it was away for")
	}
	if st := f.mgr.Stats(); st != (repair.Stats{
		Sweeps: 2, NodesDown: 1, NodesUp: 1, Failovers: 1, Demotions: 1,
		RepairsStarted: 1, RepairsDone: 1, Rejoins: 1, UnderReplicated: 1,
	}) {
		t.Fatalf("stats = %+v", st)
	}
	f.wantKinds(repair.EventNodeDown, repair.EventFailover, repair.EventNodeUp,
		repair.EventDemote, repair.EventRepairStart, repair.EventRepairDone)
}

// TestPartitionedReplicaDemotedWhileUp covers the asymmetric fault: a
// secondary whose replication link is severed keeps answering pings
// (never leaves the up state) while the pump abandons deliveries to
// it. The sweep must demote and rebuild it anyway — otherwise a later
// failover onto it would lose the dropped writes.
func TestPartitionedReplicaDemotedWhileUp(t *testing.T) {
	f := newFixture(t, 2, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.pump.MaxAttempts = 1
	f.put("a", 100, "n1", "n2")

	// Sever only the replication link: pings still answer.
	f.lt.SetApplyDown("local://n2", true)
	f.put("b", 200, "n1")
	f.pump.Enqueue("ns", record.Record{Key: []byte("b"), Value: []byte("v"), Version: 200}, f.set("b"), time.Second)
	if n := f.pump.Drain(10); n != 1 {
		t.Fatalf("drained %d", n)
	}
	f.lt.SetApplyDown("local://n2", false)

	f.sweep()
	if m, _ := f.dir.Get("n2"); m.Status != cluster.StatusUp {
		t.Fatalf("n2 went %v; the fault was replication-only", m.Status)
	}
	if st := f.mgr.Stats(); st.NodesDown != 0 || st.Demotions != 1 || st.Rejoins != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ns, err := f.nodes["n2"].Engine().Namespace("ns")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ns.GetRecord([]byte("b")); !ok {
		t.Fatal("rebuilt n2 missing the dropped write")
	}
	if got := f.replicas(); len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("replicas = %v", got)
	}
}

// TestSurvivorDiesAndOldPrimaryReturns: after failover the promoted
// survivor also dies; when the original (dead, tail-retained) primary
// returns, the next sweep promotes it instead of leaving the range
// permanently unavailable.
func TestSurvivorDiesAndOldPrimaryReturns(t *testing.T) {
	f := newFixture(t, 2, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.put("a", 100, "n1", "n2")

	f.crash("n1")
	f.dir.MarkDown("n1")
	f.sweep() // failover to [n2 n1]
	f.crash("n2")
	f.dir.MarkDown("n2")
	f.sweep()
	if st := f.mgr.Stats(); st.RangesUnavailable != 1 {
		t.Fatalf("expected unavailable range, stats %+v", st)
	}

	f.recover("n1")
	f.sweep()
	got := f.replicas()
	if got[0] != "n1" {
		t.Fatalf("returned old primary not promoted: %v", got)
	}
	if st := f.mgr.Stats(); st != (repair.Stats{
		Sweeps: 3, NodesDown: 2, NodesUp: 1, Failovers: 2,
	}) {
		t.Fatalf("stats = %+v", st)
	}
	f.wantKinds(repair.EventNodeDown, repair.EventFailover, repair.EventNodeDown,
		repair.EventUnavailable, repair.EventNodeUp, repair.EventFailover)
	// Its data still serves.
	ns, err := f.nodes["n1"].Engine().Namespace("ns")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ns.GetRecord([]byte("a")); !ok {
		t.Fatal("promoted returnee missing data")
	}
}

func TestDescribeRendersState(t *testing.T) {
	f := newFixture(t, 2, 2, repair.Config{})
	f.sweep()
	out := f.mgr.Describe()
	for _, want := range []string{"sweeps=1", "repairs:", "ranges:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
}

// demoteDraining makes n2 a former member of [n1 n2] that is still
// serving but draining: its replication link drops a delivery, it
// drains, and the next sweep demotes it.
func demoteDraining(f *fixture) {
	f.t.Helper()
	f.pump.MaxAttempts = 1
	f.put("a", 100, "n1", "n2")

	f.lt.SetApplyDown("local://n2", true)
	f.put("b", 200, "n1")
	f.pump.Enqueue("ns", record.Record{Key: []byte("b"), Value: []byte("v"), Version: 200}, f.set("b"), time.Second)
	if n := f.pump.Drain(10); n != 1 {
		f.t.Fatalf("drained %d", n)
	}
	f.lt.SetApplyDown("local://n2", false)
	f.dir.Drain("n2", true)
	f.sweep()
	if got := f.replicas(); !slices.Equal(got, []string{"n1"}) {
		f.t.Fatalf("replicas after demotion = %v, want [n1]", got)
	}
}

// TestDrainingFormerMemberKeepsTheGrace: a demoted member that is
// draining is no rejoin candidate, so it does not cut the anti-flap
// grace short — no repair starts before ReplaceAfter.
func TestDrainingFormerMemberKeepsTheGrace(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	demoteDraining(f)
	f.sweep()
	if st := f.mgr.Stats(); st.RepairsStarted != 0 || st.Rejoins != 0 {
		t.Fatalf("a draining former member triggered a repair inside the grace: %+v", st)
	}
	if got := f.replicas(); !slices.Equal(got, []string{"n1"}) {
		t.Fatalf("replicas = %v, want [n1]", got)
	}
}

// TestDrainingFormerMemberIsNotReadded: past the grace the repair
// recruits a spare, never the draining former member.
func TestDrainingFormerMemberIsNotReadded(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     5 * time.Second,
	})
	demoteDraining(f)
	f.clk.Advance(6 * time.Second)
	f.sweep()
	if got := f.replicas(); !slices.Equal(got, []string{"n1", "n3"}) {
		t.Fatalf("replicas after repair = %v, want the spare: [n1 n3]", got)
	}
	if st := f.mgr.Stats(); st.RepairsDone != 1 || st.Rejoins != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeadSecondaryWithoutSpareIsNotMoved: a secondary dead past its
// grace, with no spare to replace it, keeps its slot. Nothing is
// copied, no write is fenced and no repair is counted: a plan with
// nothing to add or drop is no move, and no job starts for it.
func TestDeadSecondaryWithoutSpareIsNotMoved(t *testing.T) {
	f := newFixture(t, 3, 3, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     5 * time.Second,
	})
	var mu sync.Mutex
	var phases []migration.Phase
	f.mig.OnPhase = func(ev migration.Event) {
		mu.Lock()
		phases = append(phases, ev.Phase)
		mu.Unlock()
	}
	f.crash("n2")
	f.dir.MarkDown("n2")
	f.sweep()
	f.clk.Advance(6 * time.Second)
	for range 3 {
		f.sweep()
	}
	if got := f.replicas(); !slices.Equal(got, []string{"n1", "n2", "n3"}) {
		t.Fatalf("replicas = %v, want [n1 n2 n3] unmoved", got)
	}
	if st := f.mgr.Stats(); st.RepairsStarted != 0 || st.RepairsDone != 0 {
		t.Fatalf("a dead member with no spare counted a repair: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(phases) != 0 {
		t.Fatalf("migration phases %v for a move with nothing to copy", phases)
	}
}

// TestDropDemotesOnlyTheRangeThatMissedIt: n2 serves both halves of
// "ns" and misses one write in the left. The sweep demotes and rebuilds
// it there alone; the right half keeps its set and starts no job.
func TestDropDemotesOnlyTheRangeThatMissedIt(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	m := f.split("m")
	f.put("x", 100, "n1", "n2")
	right := m.Lookup([]byte("x"))
	f.sweep() // a running loop has swept before the fault
	f.missWrite("b", 200, "n2")
	f.sweep()
	if st := f.mgr.Stats(); st != (repair.Stats{
		Sweeps: 2, Demotions: 1, RepairsStarted: 1, RepairsDone: 1, Rejoins: 1, UnderReplicated: 1,
	}) {
		t.Fatalf("stats = %+v", st)
	}
	if got := m.Lookup([]byte("x")); got.Epoch != right.Epoch {
		t.Fatalf("the right half changed: %+v, was %+v", got, right)
	}
	if got := f.set("b"); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Fatalf("left half = %v, want [n1 n2] rebuilt", got)
	}
	f.holds("n2", "b", 200)
	f.holds("n2", "x", 100)
}

// TestSplitAfterTheDropStillDemotes: the range splits between the drop
// and the sweep. The drop names the span before the split, which both
// halves overlap, so the half holding the missed key is rebuilt too.
func TestSplitAfterTheDropStillDemotes(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.missWrite("b", 200, "n2")
	f.split("m")
	f.sweep()
	var demoted []string
	for _, ev := range f.events {
		if ev.Kind == repair.EventDemote {
			demoted = append(demoted, fmt.Sprintf("%s [%s,%s)", ev.Node, ev.Start, ev.End))
		}
	}
	if want := []string{"n2 [,m)", "n2 [m,)"}; !slices.Equal(demoted, want) {
		t.Fatalf("demoted %v, want %v", demoted, want)
	}
	if got := f.set("b"); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Fatalf("left half = %v, want [n1 n2] rebuilt", got)
	}
	f.holds("n2", "b", 200)
}

// TestDownMemberDropWaitsForItsReturn: a drop to a member that is down
// survives every sweep while it stays down, and demotes it once it is
// back.
func TestDownMemberDropWaitsForItsReturn(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.crash("n2")
	f.dir.MarkDown("n2")
	f.missWrite("b", 200, "n2")
	for range 3 {
		f.sweep()
	}
	if st := f.mgr.Stats(); st.Demotions != 0 || st.RepairsStarted != 0 {
		t.Fatalf("a down member was acted on: %+v", st)
	}
	f.recover("n2")
	f.sweep()
	if st := f.mgr.Stats(); st.Demotions != 1 || st.RepairsDone != 1 || st.Rejoins != 1 {
		t.Fatalf("stats after the return = %+v", st)
	}
	f.holds("n2", "b", 200)
}

// TestReorderKeepsTheDrop: a flip that only reorders the range's set,
// as a failover does, between the drop and the sweep leaves the range's
// span as it was, so the drop still demotes its member.
func TestReorderKeepsTheDrop(t *testing.T) {
	f := newFixture(t, 3, 3, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.missWrite("b", 200, "n3")
	m, _ := f.router.Map("ns")
	rng := m.Lookup(nil)
	if _, err := m.CompareAndSetReplicas(nil, rng.Epoch, []string{"n2", "n1", "n3"}); err != nil {
		t.Fatal(err)
	}
	f.sweep()
	if st := f.mgr.Stats(); st.Demotions != 1 || st.RepairsDone != 1 || st.Rejoins != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := f.replicas(); !slices.Equal(got, []string{"n2", "n1", "n3"}) {
		t.Fatalf("replicas = %v, want [n2 n1 n3]", got)
	}
	f.holds("n3", "b", 200)
}

// TestGoneMemberDropIsDiscarded: the drop of a member that has left the
// directory is discarded at the sweep, and demotes nothing.
func TestGoneMemberDropIsDiscarded(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.missWrite("b", 200, "n2")
	f.dir.Remove("n2")
	f.sweep()
	if st := f.mgr.Stats(); st.Demotions != 0 {
		t.Fatalf("stats = %+v, want no demotion", st)
	}
	if left := f.pump.TakeDrops(nil); len(left) != 0 {
		t.Fatalf("drops left after the sweep: %+v", left)
	}
}

// TestLostFlipKeepsTheDrop: a demotion whose flip loses to a concurrent
// reconfiguration of its range keeps the drop for that range, so a
// later sweep demotes the member there and rebuilds its copy.
func TestLostFlipKeepsTheDrop(t *testing.T) {
	f := newFixture(t, 3, 2, repair.Config{
		HeartbeatTimeout: 10 * time.Second,
		ReplaceAfter:     time.Hour,
	})
	f.missWrite("x", 200, "n2")
	m := f.split("m")
	record := f.mgr.OnEvent
	bumped := false
	f.mgr.OnEvent = func(ev repair.Event) {
		record(ev)
		if ev.Kind == repair.EventDemote && ev.Start == nil && !bumped {
			// A flip of the right half lands between the sweep's read of
			// the map and its demotion there.
			bumped = true
			right := m.Lookup([]byte("m"))
			if _, err := m.CompareAndSetReplicas(right.Start, right.Epoch, right.Replicas); err != nil {
				t.Error(err)
			}
		}
	}
	for range 3 {
		f.sweep()
	}
	if !bumped {
		t.Fatal("the left half was never demoted")
	}
	if got := f.set("x"); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Fatalf("right half = %v, want [n1 n2] rebuilt", got)
	}
	f.holds("n2", "x", 200)
	if st := f.mgr.Stats(); st.Demotions != 2 {
		t.Fatalf("demotions = %d, want 2: one per half", st.Demotions)
	}
}
