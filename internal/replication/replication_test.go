package replication

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func upd(ns, target string, deadline time.Time) Update {
	return Update{Namespace: ns, Target: target, Deadline: deadline, EnqueuedAt: t0,
		Rec: record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}}
}

func TestQueuePeekAndLen(t *testing.T) {
	q := NewQueue(ByDeadline)
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue")
	}
	q.Push(upd("ns", "x", t0.Add(time.Second)))
	q.Push(upd("ns", "y", t0.Add(time.Minute)))
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if u, ok := q.Pop(); !ok || u.Target != "x" {
		t.Fatalf("Pop = %+v %v, want the most urgent", u, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len after Pop = %d", q.Len())
	}
}

func TestQueueAtRiskAndOverdue(t *testing.T) {
	q := NewQueue(ByDeadline)
	q.Push(upd("ns", "overdue", t0.Add(-time.Second)))
	q.Push(upd("ns", "soon", t0.Add(2*time.Second)))
	q.Push(upd("ns", "later", t0.Add(time.Hour)))
	if got := q.AtRisk(t0, 0); got != 1 {
		t.Fatalf("overdue = %d", got)
	}
	if got := q.AtRisk(t0, 5*time.Second); got != 2 {
		t.Fatalf("AtRisk = %d", got)
	}
}

// applySink records applied records, optionally failing some targets.
type applySink struct {
	mu      sync.Mutex
	applied map[string][]record.Record // target -> records
	fail    map[string]bool
	calls   int
}

func newApplySink() *applySink {
	return &applySink{applied: make(map[string][]record.Record), fail: make(map[string]bool)}
}

func (s *applySink) apply(ns, node string, recs []record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.fail[node] {
		return errors.New("injected failure")
	}
	s.applied[node] = append(s.applied[node], recs...)
	return nil
}

func (s *applySink) count(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applied[node])
}

func TestPumpDeliversToAllTargets(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)

	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	p.Enqueue("ns", rec, []string{"n2", "n3"}, 10*time.Second)
	if n := p.Drain(10); n != 2 {
		t.Fatalf("Drain processed %d, want 2", n)
	}
	if sink.count("n2") != 1 || sink.count("n3") != 1 {
		t.Fatalf("targets got %d/%d records", sink.count("n2"), sink.count("n3"))
	}
	st := p.Stats()
	if st.Enqueued != 2 || st.Delivered != 2 || st.Violations != 0 || st.Pending != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPumpCountsViolations(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n2"}, time.Second)
	vc.Advance(5 * time.Second) // miss the deadline before draining
	p.Drain(1)
	if st := p.Stats(); st.Violations != 1 {
		t.Fatalf("Violations = %d, want 1", st.Violations)
	}
}

func TestPumpRetriesAndDrops(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	sink.fail["dead"] = true
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.MaxAttempts = 3
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"dead"}, time.Second)

	total := 0
	for i := 0; i < 10; i++ {
		total += p.Drain(10)
		vc.Advance(time.Second) // let retry backoffs elapse
	}
	if total != 3 {
		t.Fatalf("attempted %d deliveries, want MaxAttempts=3", total)
	}
	st := p.Stats()
	if st.Dropped != 1 || st.Failures != 3 || st.Delivered != 0 {
		t.Fatalf("Stats = %+v", st)
	}
	// Tracker must not leak: staleness returns to 0 after drop.
	if d := p.Tracker().Staleness("ns", "dead"); d != 0 {
		t.Fatalf("staleness after drop = %v", d)
	}
}

func TestPumpRetryDoesNotStarve(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	sink.fail["dead"] = true
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.MaxAttempts = 100
	// The dead target's update has the tightest deadline.
	p.Enqueue("ns", record.Record{Key: []byte("k1"), Version: 1}, []string{"dead"}, time.Millisecond)
	p.Enqueue("ns", record.Record{Key: []byte("k2"), Version: 2}, []string{"live"}, time.Hour)
	// A couple of drain rounds must still deliver to the live target.
	p.Drain(4)
	if sink.count("live") != 1 {
		t.Fatal("live target starved by retrying dead target")
	}
}

func TestPumpDeadlineOrderUnderBudget(t *testing.T) {
	// With a tiny drain budget, tight-bound updates must be delivered
	// first — the paper's core argument for the priority queue.
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("loose"), Version: 1}, []string{"n"}, time.Hour)
	p.Enqueue("ns", record.Record{Key: []byte("tight"), Version: 2}, []string{"n"}, time.Second)
	p.Drain(1)
	sink.mu.Lock()
	first := string(sink.applied["n"][0].Key)
	sink.mu.Unlock()
	if first != "tight" {
		t.Fatalf("first delivered = %q, want tight-bound update", first)
	}
}

func TestTrackerStaleness(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)

	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("initial staleness = %v", d)
	}
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n2"}, time.Minute)
	vc.Advance(10 * time.Second)
	if d := p.Tracker().Staleness("ns", "n2"); d != 10*time.Second {
		t.Fatalf("staleness = %v, want 10s", d)
	}
	p.Drain(1)
	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("staleness after delivery = %v", d)
	}
}

func TestTrackerOldestPendingWins(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	q := NewQueue(FIFO) // control delivery order precisely
	p := NewPump(q, sink.apply, vc)

	p.Enqueue("ns", record.Record{Key: []byte("old"), Version: 1}, []string{"n"}, time.Hour)
	vc.Advance(30 * time.Second)
	p.Enqueue("ns", record.Record{Key: []byte("new"), Version: 2}, []string{"n"}, time.Hour)

	if d := p.Tracker().Staleness("ns", "n"); d != 30*time.Second {
		t.Fatalf("staleness = %v, want 30s (age of oldest)", d)
	}
	p.Drain(1) // delivers "old"
	if d := p.Tracker().Staleness("ns", "n"); d != 0 {
		t.Fatalf("staleness = %v, want 0 (only newest pending, enqueued now)", d)
	}
}

// TestPumpRunWorkers runs two Worker steps under clock.Loop, as the
// coordinator's background driver does: idle workers rest 5ms of
// virtual time, and woken they deliver the whole queue between them.
func TestPumpRunWorkers(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock.Loop(vc, stop, 0, p.Worker())
		}()
	}
	vc.BlockUntilWaiters(2)
	for i := 0; i < 50; i++ {
		p.Enqueue("ns", record.Record{Key: []byte(fmt.Sprintf("k%d", i)), Version: uint64(i + 1)}, []string{"n"}, time.Minute)
	}
	if sink.count("n") != 0 {
		t.Fatal("a resting worker delivered before its rest was over")
	}
	vc.Advance(5 * time.Millisecond)
	vc.BlockUntilWaiters(2)
	close(stop)
	wg.Wait()
	if sink.count("n") != 50 {
		t.Fatalf("workers delivered %d/50", sink.count("n"))
	}
}

// Property: tracker staleness is zero exactly when all enqueued
// updates have been delivered.
func TestQuickTrackerBalance(t *testing.T) {
	f := func(nTargets uint8, bounds []uint8) bool {
		vc := clock.NewVirtual(t0)
		sink := newApplySink()
		p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
		targets := []string{"a", "b", "c"}[:nTargets%3+1]
		worst := func() (w time.Duration) {
			for _, target := range targets {
				w = max(w, p.Tracker().Staleness("ns", target))
			}
			return w
		}
		for i, b := range bounds {
			p.Enqueue("ns", record.Record{Key: []byte{byte(i)}, Version: uint64(i + 1)},
				targets, time.Duration(b)*time.Second)
		}
		vc.Advance(time.Second)
		if len(bounds) > 0 && worst() == 0 {
			return false
		}
		for p.Drain(100) > 0 {
		}
		return worst() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue(ByDeadline)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(upd("ns", "t", t0.Add(time.Duration(i%1000)*time.Millisecond)))
		if i%2 == 1 {
			q.Pop()
		}
	}
}

func BenchmarkPumpDrain(b *testing.B) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Enqueue("ns", rec, []string{"n"}, time.Minute)
		p.Drain(1)
	}
}

func TestPumpAtRiskIncludesParked(t *testing.T) {
	vc := clock.NewVirtual(t0)
	q := NewQueue(ByDeadline)
	fail := func(ns, node string, recs []record.Record) error {
		return errors.New("severed link")
	}
	p := NewPump(q, fail, vc)
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"nodeB"}, 5*time.Second)
	p.Drain(10) // delivery fails, update parks for retry
	if got := q.AtRisk(vc.Now(), 10*time.Second); got != 0 {
		t.Fatalf("queue AtRisk = %d, want 0 (update is parked, not queued)", got)
	}
	if got := p.AtRisk(10 * time.Second); got != 1 {
		t.Fatalf("pump AtRisk = %d, want 1 (parked update within margin)", got)
	}
	// Outside the margin it is not yet at risk.
	if got := p.AtRisk(time.Second); got != 0 {
		t.Fatalf("pump AtRisk(1s) = %d, want 0", got)
	}
}

// TestRebindClonesPendingToAddedReplicas: a flip-time Rebind must
// duplicate every pending in-range update — queued or parked — to the
// replicas a migration just added, deduplicating multi-target
// enqueues, and leave out-of-range updates alone.
func TestRebindClonesPendingToAddedReplicas(t *testing.T) {
	vc := clock.NewVirtual(t0)
	var mu sync.Mutex
	delivered := map[string][]string{} // target -> keys
	failing := map[string]bool{}
	apply := func(ns, node string, recs []record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		if failing[node] {
			return errors.New("down")
		}
		for _, r := range recs {
			delivered[node] = append(delivered[node], string(r.Key))
		}
		return nil
	}
	p := NewPump(NewQueue(ByDeadline), apply, vc)

	rec := func(key string, ver uint64) record.Record {
		return record.Record{Key: []byte(key), Value: []byte("v"), Version: ver}
	}
	// Multi-target enqueue of the same record: must clone once, not
	// once per original target.
	p.Enqueue("ns", rec("b", 1), []string{"n1", "n2"}, time.Minute)
	// Out of [a, c) range: not cloned.
	p.Enqueue("ns", rec("x", 2), []string{"n1"}, time.Minute)
	// Wrong namespace: not cloned.
	p.Enqueue("other", rec("b", 3), []string{"n1"}, time.Minute)
	// Parked update (delivery fails once): still visible to Rebind.
	mu.Lock()
	failing["n2"] = true
	mu.Unlock()
	p.Enqueue("ns", rec("a", 4), []string{"n2"}, time.Minute)
	p.Drain(10) // delivers the others; parks a/4 for n2
	mu.Lock()
	failing["n2"] = false
	mu.Unlock()

	if n := p.Rebind("ns", []byte("a"), []byte("c"), []string{"n3"}); n != 2 {
		t.Fatalf("Rebind cloned %d updates, want 2 (b/1 deduped + parked a/4)", n)
	}
	vc.Advance(time.Second) // backoff elapses
	p.Drain(10)
	mu.Lock()
	defer mu.Unlock()
	got := map[string]bool{}
	for _, k := range delivered["n3"] {
		got[k] = true
	}
	if len(delivered["n3"]) != 2 || !got["a"] || !got["b"] {
		t.Fatalf("n3 deliveries = %v, want exactly {a, b}", delivered["n3"])
	}
	if p.Stats().Pending != 0 {
		t.Fatalf("pending = %d after drain", p.Stats().Pending)
	}
}

// TestRebindSeesInflightUpdates: an update popped and mid-delivery
// during the Rebind scan is still cloned — the pump registers it as in
// flight before releasing the queue.
func TestRebindSeesInflightUpdates(t *testing.T) {
	vc := clock.NewVirtual(t0)
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	delivered := map[string]int{}
	apply := func(ns, node string, recs []record.Record) error {
		if node == "n1" {
			close(entered)
			<-release
		}
		mu.Lock()
		delivered[node]++
		mu.Unlock()
		return nil
	}
	p := NewPump(NewQueue(ByDeadline), apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n1"}, time.Minute)
	done := make(chan struct{})
	go func() {
		p.Drain(1)
		close(done)
	}()
	<-entered // the update is in flight, the queue is empty
	if n := p.Rebind("ns", nil, nil, []string{"n3"}); n != 1 {
		t.Fatalf("Rebind cloned %d, want the in-flight update", n)
	}
	close(release)
	<-done
	p.Drain(1)
	mu.Lock()
	defer mu.Unlock()
	if delivered["n3"] != 1 {
		t.Fatalf("n3 deliveries = %d", delivered["n3"])
	}
}

// TestDroppedToCountsAbandonedDeliveries: the per-target drop counter
// is the repair manager's staleness criterion for returned nodes.
func TestDroppedToCountsAbandonedDeliveries(t *testing.T) {
	vc := clock.NewVirtual(t0)
	apply := func(ns, node string, recs []record.Record) error { return errors.New("down") }
	p := NewPump(NewQueue(ByDeadline), apply, vc)
	p.MaxAttempts = 1
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n1", "n2"}, time.Minute)
	p.Drain(10)
	if got := p.DroppedTo("n1"); got != 1 {
		t.Fatalf("DroppedTo(n1) = %d", got)
	}
	if got := p.DroppedTo("n2"); got != 1 {
		t.Fatalf("DroppedTo(n2) = %d", got)
	}
	if got := p.DroppedTo("n3"); got != 0 {
		t.Fatalf("DroppedTo(n3) = %d", got)
	}
}

// TestEnqueueRegistersBeforePoppable: an update must be in the
// staleness tracker before a worker can pop it. Were it pushed first, a
// worker could pop, deliver and mark it done while the tracker still
// knew nothing of it, and the registration that followed would never be
// removed: the replica would look stale for good. The test holds the
// tracker's lock, so Enqueue stalls at the registration, and watches for
// the update to turn up in the queue meanwhile.
func TestEnqueueRegistersBeforePoppable(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)

	p.tracker.mu.Lock()
	enqueued := make(chan struct{})
	go func() {
		defer close(enqueued)
		p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n2"}, time.Minute)
	}()
	poppable := false
	for wait := time.Now().Add(50 * time.Millisecond); !poppable && time.Now().Before(wait); {
		poppable = p.queue.Len() > 0
		time.Sleep(time.Millisecond)
	}
	p.tracker.mu.Unlock()
	<-enqueued
	if poppable {
		t.Fatal("update was poppable before the tracker knew of it")
	}

	vc.Advance(10 * time.Second)
	if d := p.Tracker().Staleness("ns", "n2"); d != 10*time.Second {
		t.Fatalf("staleness while pending = %v, want 10s", d)
	}
	p.Drain(1)
	vc.Advance(time.Hour)
	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("staleness after delivery = %v, want 0", d)
	}
}

// TestPendingSetHeapStaysBounded: the tracker of a (namespace, node)
// pair nobody asks about must not grow with the records replicated
// through it.
func TestPendingSetHeapStaysBounded(t *testing.T) {
	ps := &pendingSet{live: make(map[int64]int)}
	const outstanding = 8
	for i := 0; i < 100000; i++ {
		ps.add(t0.Add(time.Duration(i) * time.Microsecond))
		if i >= outstanding {
			ps.remove(t0.Add(time.Duration(i-outstanding) * time.Microsecond))
		}
		if ps.h.Len() > outstanding+1 {
			t.Fatalf("after %d cycles the heap holds %d times for %d outstanding", i, ps.h.Len(), len(ps.live))
		}
	}
	if oldest, ok := ps.min(); !ok || !oldest.Equal(t0.Add((100000-outstanding)*time.Microsecond)) {
		t.Fatalf("min = %v, %v", oldest, ok)
	}
}

// TestEnqueueDeliverAllocs pins the steady-state cost of one update's
// trip through the pump: Enqueue, pop, apply, done.
func TestEnqueueDeliverAllocs(t *testing.T) {
	vc := clock.NewVirtual(t0)
	p := NewPump(NewQueue(ByDeadline), func(ns, node string, recs []record.Record) error { return nil }, vc)
	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	targets := []string{"n"}
	var buf roundBuf
	cycle := func() {
		p.Enqueue("ns", rec, targets, time.Minute)
		if p.round(1, &buf) != 1 {
			t.Fatal("nothing to deliver")
		}
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("Enqueue + deliver = %v allocs, want 0", got)
	}
}

// fenceSink stands in for a node: like Node.apply it rejects a whole
// request when one record of it is refused, and it logs every call.
type fenceSink struct {
	mu      sync.Mutex
	refused map[string]bool // by key
	down    map[string]bool // by node
	calls   []string        // "node:key,key"
	applied map[string][]string
}

func newFenceSink() *fenceSink {
	return &fenceSink{refused: map[string]bool{}, down: map[string]bool{}, applied: map[string][]string{}}
}

func (s *fenceSink) apply(ns, node string, recs []record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	call := node + ":"
	refused := s.down[node]
	for i, r := range recs {
		if i > 0 {
			call += ","
		}
		call += string(r.Key)
		refused = refused || s.refused[string(r.Key)]
	}
	s.calls = append(s.calls, call)
	if refused {
		return errors.New("range fenced for migration")
	}
	for _, r := range recs {
		s.applied[node] = append(s.applied[node], string(r.Key))
	}
	return nil
}

// TestGroupFailureChargesOnlyTheCulprit: one refused record fails the
// apply of its whole group; the group is then retried one update at a
// time, and only the refused update pays — with an attempt, a parking
// or, at MaxAttempts, the drop.
func TestGroupFailureChargesOnlyTheCulprit(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newFenceSink()
	sink.refused["c"] = true
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.MaxAttempts = 2
	for i, k := range []string{"a", "b", "c", "d"} {
		p.Enqueue("ns", record.Record{Key: []byte(k), Version: uint64(i + 1)}, []string{"n"}, time.Minute)
	}
	if n := p.Drain(10); n != 4 {
		t.Fatalf("Drain attempted %d updates, want 4", n)
	}
	want := []string{"n:a,b,c,d", "n:a", "n:b", "n:c", "n:d"}
	if fmt.Sprint(sink.calls) != fmt.Sprint(want) {
		t.Fatalf("calls = %v, want %v", sink.calls, want)
	}
	if st := p.Stats(); st.Delivered != 3 || st.Failures != 1 || st.Dropped != 0 || st.Pending != 1 {
		t.Fatalf("after the first round: %+v", st)
	}
	if len(p.parked) != 1 || string(p.parked[0].u.Rec.Key) != "c" || p.parked[0].u.Attempts != 1 {
		t.Fatalf("parked = %+v, want c with one attempt", p.parked)
	}
	vc.Advance(time.Second)
	if d := p.Tracker().Staleness("ns", "n"); d != time.Second {
		t.Fatalf("staleness = %v, want 1s: c is still owed", d)
	}
	// The second failure is c's last; nothing else was ever charged.
	p.Drain(10)
	if st := p.Stats(); st.Delivered != 3 || st.Failures != 2 || st.Dropped != 1 || st.Pending != 0 {
		t.Fatalf("after the second round: %+v", st)
	}
	if p.DroppedTo("n") != 1 || p.Tracker().Staleness("ns", "n") != 0 {
		t.Fatalf("DroppedTo = %d, staleness = %v", p.DroppedTo("n"), p.Tracker().Staleness("ns", "n"))
	}
}

// TestDeadTargetDoesNotDelayOtherDestinations: the one-by-one retry of
// a failed group waits until every other destination popped in the same
// round has had its apply, however urgent the dead target's updates.
func TestDeadTargetDoesNotDelayOtherDestinations(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newFenceSink()
	sink.down["dead"] = true
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("a"), Version: 1}, []string{"dead"}, time.Millisecond)
	p.Enqueue("ns", record.Record{Key: []byte("b"), Version: 2}, []string{"dead"}, time.Millisecond)
	p.Enqueue("ns", record.Record{Key: []byte("c"), Version: 3}, []string{"live"}, time.Hour)
	p.Enqueue("other", record.Record{Key: []byte("d"), Version: 4}, []string{"live"}, time.Hour)
	p.Drain(10)
	want := []string{"dead:a,b", "live:c", "live:d", "dead:a", "dead:b"}
	if fmt.Sprint(sink.calls) != fmt.Sprint(want) {
		t.Fatalf("calls = %v, want %v", sink.calls, want)
	}
	if st := p.Stats(); st.Delivered != 2 || st.Failures != 2 || st.Pending != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestGroupAccountsPerUpdate: the members of one apply keep their own
// deadlines and their own tracker entries.
func TestGroupAccountsPerUpdate(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newFenceSink()
	p := NewPump(NewQueue(FIFO), sink.apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("late1"), Version: 1}, []string{"n"}, time.Second)
	p.Enqueue("ns", record.Record{Key: []byte("intime"), Version: 2}, []string{"n"}, time.Hour)
	vc.Advance(2 * time.Second)
	p.Enqueue("ns", record.Record{Key: []byte("late2"), Version: 3}, []string{"n"}, -time.Second)
	p.Enqueue("ns", record.Record{Key: []byte("left"), Version: 4}, []string{"n"}, time.Hour)
	vc.Advance(3 * time.Second)
	if n := p.Drain(3); n != 3 {
		t.Fatalf("Drain(3) attempted %d", n)
	}
	if len(sink.calls) != 1 || sink.calls[0] != "n:late1,intime,late2" {
		t.Fatalf("calls = %v, want the budget's three records in one apply", sink.calls)
	}
	if st := p.Stats(); st.Delivered != 3 || st.Violations != 2 || st.Pending != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if got := p.ViolationsFor("ns"); got != 2 {
		t.Fatalf("ViolationsFor = %d", got)
	}
	// Only "left", enqueued 3s ago, is still owed.
	if d := p.Tracker().Staleness("ns", "n"); d != 3*time.Second {
		t.Fatalf("staleness = %v, want 3s", d)
	}
}

// TestRebindClonesEveryMemberOfInflightBatch: every update of a round
// is registered as in flight before the round's first apply goes out.
func TestRebindClonesEveryMemberOfInflightBatch(t *testing.T) {
	vc := clock.NewVirtual(t0)
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	delivered := map[string][]string{}
	first := true
	apply := func(ns, node string, recs []record.Record) error {
		mu.Lock()
		block := first
		first = false
		mu.Unlock()
		if block {
			close(entered)
			<-release
		}
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			delivered[node] = append(delivered[node], string(r.Key))
		}
		return nil
	}
	p := NewPump(NewQueue(ByDeadline), apply, vc)
	for i, k := range []string{"a", "b", "c"} {
		p.Enqueue("ns", record.Record{Key: []byte(k), Version: uint64(i + 1)}, []string{"n1"}, time.Minute)
	}
	p.Enqueue("ns", record.Record{Key: []byte("d"), Version: 4}, []string{"n2"}, time.Minute)
	p.Enqueue("ns", record.Record{Key: []byte("z"), Version: 5}, []string{"n2"}, time.Minute) // outside [a, e)
	done := make(chan struct{})
	go func() {
		p.Drain(5)
		close(done)
	}()
	<-entered // n1's group is on the wire, n2's has not been sent yet
	if st := p.Stats(); st.Pending != 5 {
		t.Fatalf("pending mid-round = %d, want all 5 in flight", st.Pending)
	}
	if n := p.Rebind("ns", []byte("a"), []byte("e"), []string{"n3"}); n != 4 {
		t.Fatalf("Rebind cloned %d, want a, b, c and d", n)
	}
	close(release)
	<-done
	p.Drain(10)
	mu.Lock()
	defer mu.Unlock()
	got := append([]string(nil), delivered["n3"]...)
	sort.Strings(got)
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("n3 deliveries = %v", got)
	}
	if p.Stats().Pending != 0 {
		t.Fatalf("pending = %d after drain", p.Stats().Pending)
	}
}
