package replication

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/clock"
	"scads/internal/partition"
	"scads/internal/record"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func upd(ns, key string, deadline time.Time) Update {
	return Update{Namespace: ns, Deadline: deadline, EnqueuedAt: t0,
		Rec: record.Record{Key: []byte(key), Value: []byte("v"), Version: 1}}
}

// routes is the routing map a test pump reads: a partition map per
// namespace, each range acked by "p".
type routes map[string]*partition.Map

func (r routes) resolve(ns string) (*partition.Map, bool) {
	m, ok := r[ns]
	return m, ok
}

// place gives the keys of ns from start up to the next placed start to
// p and members.
func (r routes) place(t testing.TB, ns, start string, members ...string) {
	t.Helper()
	if r[ns] == nil {
		m, err := partition.NewMap([]string{"p"})
		if err != nil {
			t.Fatal(err)
		}
		r[ns] = m
	}
	if start != "" {
		if err := r[ns].Split([]byte(start)); err != nil {
			t.Fatal(err)
		}
	}
	r.move(t, ns, start, append([]string{"p"}, members...)...)
}

// move publishes a new replica set for the range of ns holding key.
func (r routes) move(t testing.TB, ns, key string, replicas ...string) {
	t.Helper()
	if err := r[ns].SetReplicas([]byte(key), replicas); err != nil {
		t.Fatal(err)
	}
}

// set is the published replica set of the range of ns holding key: what
// a coordinator passes to Enqueue for a write its primary acked.
func (r routes) set(ns, key string) []string { return r[ns].Lookup([]byte(key)).Replicas }

// enqueue queues rec as acked by the primary of its range.
func (r routes) enqueue(p *Pump, ns string, rec record.Record, bound time.Duration) {
	p.Enqueue(ns, rec, r.set(ns, string(rec.Key)), bound)
}

// newPump returns a pump whose every namespace's keys are owed to p and
// members.
func newPump(t testing.TB, apply ApplyFunc, clk clock.Clock, order Order, members ...string) (*Pump, routes) {
	r := routes{}
	r.place(t, "ns", "", members...)
	r.place(t, "other", "", members...)
	return NewPump(NewQueue(order), apply, r.resolve, clk), r
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
	if u, ok := q.Pop(); !ok || string(u.Rec.Key) != "x" {
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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n2", "n3")

	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	r.enqueue(p, "ns", rec, 10*time.Second)
	if n := p.Drain(10); n != 1 {
		t.Fatalf("Drain processed %d, want the one update", n)
	}
	if sink.count("n2") != 1 || sink.count("n3") != 1 || sink.count("p") != 0 {
		t.Fatalf("members got %d/%d records, the acker %d", sink.count("n2"), sink.count("n3"), sink.count("p"))
	}
	st := p.Stats()
	if st.Enqueued != 1 || st.Delivered != 2 || st.Violations != 0 || st.Pending != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPumpCountsViolations(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n2")
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Second)
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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "dead")
	p.MaxAttempts = 3
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Second)

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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "dead")
	r.place(t, "ns", "k2", "live")
	p.MaxAttempts = 100
	// The dead member's update has the tightest deadline.
	r.enqueue(p, "ns", record.Record{Key: []byte("k1"), Version: 1}, time.Millisecond)
	r.enqueue(p, "ns", record.Record{Key: []byte("k2"), Version: 2}, time.Hour)
	// A couple of drain rounds must still deliver to the live member.
	p.Drain(4)
	if sink.count("live") != 1 {
		t.Fatal("live member starved by retrying dead member")
	}
}

func TestPumpDeadlineOrderUnderBudget(t *testing.T) {
	// With a tiny drain budget, tight-bound updates must be delivered
	// first — the paper's core argument for the priority queue.
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n")
	r.enqueue(p, "ns", record.Record{Key: []byte("loose"), Version: 1}, time.Hour)
	r.enqueue(p, "ns", record.Record{Key: []byte("tight"), Version: 2}, time.Second)
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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n2")

	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("initial staleness = %v", d)
	}
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
	vc.Advance(10 * time.Second)
	if d := p.Tracker().Staleness("ns", "n2"); d != 10*time.Second {
		t.Fatalf("staleness = %v, want 10s", d)
	}
	if d := p.Tracker().Staleness("ns", "p"); d != 0 {
		t.Fatalf("acker staleness = %v, want 0", d)
	}
	p.Drain(1)
	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("staleness after delivery = %v", d)
	}
}

func TestTrackerOldestPendingWins(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p, r := newPump(t, sink.apply, vc, FIFO, "n") // FIFO controls delivery order precisely

	r.enqueue(p, "ns", record.Record{Key: []byte("old"), Version: 1}, time.Hour)
	vc.Advance(30 * time.Second)
	r.enqueue(p, "ns", record.Record{Key: []byte("new"), Version: 2}, time.Hour)

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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n")
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
		r.enqueue(p, "ns", record.Record{Key: []byte(fmt.Sprintf("k%d", i)), Version: uint64(i + 1)}, time.Minute)
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
		targets := []string{"a", "b", "c"}[:nTargets%3+1]
		p, r := newPump(t, sink.apply, vc, ByDeadline, targets...)
		worst := func() (w time.Duration) {
			for _, target := range targets {
				w = max(w, p.Tracker().Staleness("ns", target))
			}
			return w
		}
		for i, b := range bounds {
			r.enqueue(p, "ns", record.Record{Key: []byte{byte(i)}, Version: uint64(i + 1)},
				time.Duration(b)*time.Second)
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
		q.Push(upd("ns", "k", t0.Add(time.Duration(i%1000)*time.Millisecond)))
		if i%2 == 1 {
			q.Pop()
		}
	}
}

func BenchmarkPumpDrain(b *testing.B) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p, r := newPump(b, sink.apply, vc, ByDeadline, "n")
	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.enqueue(p, "ns", rec, time.Minute)
		p.Drain(1)
	}
}

func TestPumpAtRiskIncludesParked(t *testing.T) {
	vc := clock.NewVirtual(t0)
	fail := func(ns, node string, recs []record.Record) error {
		return errors.New("severed link")
	}
	p, r := newPump(t, fail, vc, ByDeadline, "nodeB")
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, 5*time.Second)
	p.Drain(10) // delivery fails, update parks for retry
	if got := p.Queue().AtRisk(vc.Now(), 10*time.Second); got != 0 {
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

// keySink records the keys each node was sent, failing the nodes the
// test marks down.
type keySink struct {
	mu        sync.Mutex
	delivered map[string][]string // node -> keys
	down      map[string]bool
}

func newKeySink() *keySink {
	return &keySink{delivered: map[string][]string{}, down: map[string]bool{}}
}

func (s *keySink) apply(ns, node string, recs []record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down[node] {
		return errors.New("down")
	}
	for _, r := range recs {
		s.delivered[node] = append(s.delivered[node], string(r.Key))
	}
	return nil
}

func (s *keySink) keys(node string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	got := slices.Clone(s.delivered[node])
	sort.Strings(got)
	return fmt.Sprint(got)
}

func (s *keySink) setDown(node string, down bool) {
	s.mu.Lock()
	s.down[node] = down
	s.mu.Unlock()
}

// TestJoiningMemberGetsPendingUpdates: a member that joins a range is
// owed every update of the range still pending — queued or parked —
// and nothing outside the range or of another namespace.
func TestJoiningMemberGetsPendingUpdates(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newKeySink()
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n1")
	r.place(t, "ns", "a", "n1", "n2")
	r.place(t, "ns", "c", "n1")
	rec := func(key string, ver uint64) record.Record {
		return record.Record{Key: []byte(key), Value: []byte("v"), Version: ver}
	}
	r.enqueue(p, "ns", rec("b", 1), time.Minute)
	r.enqueue(p, "ns", rec("x", 2), time.Minute)    // outside [a, c)
	r.enqueue(p, "other", rec("b", 3), time.Minute) // another namespace
	r.enqueue(p, "ns", rec("a", 4), time.Minute)
	// n2 is down: a and b park, owed to n2, and x and other/b are done.
	sink.setDown("n2", true)
	p.Drain(10)
	sink.setDown("n2", false)
	if st := p.Stats(); st.Pending != 2 {
		t.Fatalf("pending = %d, want a and b parked", st.Pending)
	}

	r.move(t, "ns", "a", "p", "n1", "n2", "n3")
	vc.Advance(time.Second) // backoff elapses
	p.Drain(10)
	if got := sink.keys("n3"); got != "[a b]" {
		t.Fatalf("n3 deliveries = %v, want exactly a and b", got)
	}
	if p.Stats().Pending != 0 {
		t.Fatalf("pending = %d after drain", p.Stats().Pending)
	}
}

// TestJoiningMemberGetsInflightUpdate: an update mid-delivery when a
// member joins reaches it too — the pump reads the set again after the
// delivery, before the update settles.
func TestJoiningMemberGetsInflightUpdate(t *testing.T) {
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
	p, r := newPump(t, apply, vc, ByDeadline, "n1")
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
	done := make(chan struct{})
	go func() {
		p.Drain(1)
		close(done)
	}()
	<-entered // the update is in flight, the queue is empty
	r.move(t, "ns", "k", "p", "n3")
	close(release)
	<-done
	p.Drain(1)
	mu.Lock()
	defer mu.Unlock()
	if delivered["n3"] != 1 {
		t.Fatalf("n3 deliveries = %d", delivered["n3"])
	}
	if p.Stats().Pending != 0 {
		t.Fatalf("pending = %d after drain", p.Stats().Pending)
	}
}

// TestDropEvidenceIsPerRangeAndMember: a delivery given up on leaves
// one Drop per (range span, member), however many writes that member
// missed there; a drop in another range is another entry, and
// TakeDrops keeps the drops of the members it is asked to keep.
func TestDropEvidenceIsPerRangeAndMember(t *testing.T) {
	vc := clock.NewVirtual(t0)
	apply := func(ns, node string, recs []record.Record) error { return errors.New("down") }
	p, r := newPump(t, apply, vc, ByDeadline)
	r.place(t, "ns", "", "n1")
	r.place(t, "ns", "m", "n1", "n2")
	p.MaxAttempts = 1
	for i := range 1000 {
		r.enqueue(p, "ns", record.Record{Key: []byte(fmt.Sprintf("a%04d", i)), Version: uint64(i + 1)}, time.Minute)
	}
	for p.Drain(100) > 0 {
	}
	if st := p.Stats(); st.Dropped != 1000 || len(p.drops) != 1 {
		t.Fatalf("1000 drops to n1 in one range: Dropped = %d, drops = %+v, want one entry", st.Dropped, p.drops)
	}
	r.enqueue(p, "ns", record.Record{Key: []byte("z"), Version: 2000}, time.Minute)
	p.Drain(10)
	want := []Drop{
		{Namespace: "ns", End: []byte("m"), Member: "n1"},
		{Namespace: "ns", Start: []byte("m"), Member: "n1"},
		{Namespace: "ns", Start: []byte("m"), Member: "n2"},
	}
	if fmt.Sprint(p.drops) != fmt.Sprint(want) {
		t.Fatalf("drops = %+v, want %+v", p.drops, want)
	}
	if got := p.TakeDrops([]string{"n1"}); fmt.Sprint(got) != fmt.Sprint(want[2:]) {
		t.Fatalf("TakeDrops keeping n1 = %+v, want %+v", got, want[2:])
	}
	if fmt.Sprint(p.drops) != fmt.Sprint(want[:2]) {
		t.Fatalf("drops left = %+v, want n1's: %+v", p.drops, want[:2])
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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n2")

	p.tracker.mu.Lock()
	enqueued := make(chan struct{})
	go func() {
		defer close(enqueued)
		r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
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

// TestEnqueueDeliverAllocs pins the steady-state cost of one update's
// trip through the pump: Enqueue, pop, apply, done.
func TestEnqueueDeliverAllocs(t *testing.T) {
	vc := clock.NewVirtual(t0)
	p, r := newPump(t, func(ns, node string, recs []record.Record) error { return nil }, vc, ByDeadline, "n")
	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	replicas := r.set("ns", "k")
	var buf roundBuf
	cycle := func() {
		p.Enqueue("ns", rec, replicas, time.Minute)
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
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n")
	p.MaxAttempts = 2
	for i, k := range []string{"a", "b", "c", "d"} {
		r.enqueue(p, "ns", record.Record{Key: []byte(k), Version: uint64(i + 1)}, time.Minute)
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
	if want := []Drop{{Namespace: "ns", Member: "n"}}; fmt.Sprint(p.drops) != fmt.Sprint(want) || p.Tracker().Staleness("ns", "n") != 0 {
		t.Fatalf("drops = %+v, staleness = %v, want %+v and fresh", p.drops, p.Tracker().Staleness("ns", "n"), want)
	}
}

// TestDeadTargetDoesNotDelayOtherDestinations: the one-by-one retry of
// a failed group waits until every other destination popped in the same
// round has had its apply, however urgent the dead member's updates.
func TestDeadTargetDoesNotDelayOtherDestinations(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newFenceSink()
	sink.down["dead"] = true
	p, r := newPump(t, sink.apply, vc, ByDeadline, "dead")
	r.place(t, "ns", "c", "live")
	r.place(t, "other", "", "live")
	r.enqueue(p, "ns", record.Record{Key: []byte("a"), Version: 1}, time.Millisecond)
	r.enqueue(p, "ns", record.Record{Key: []byte("b"), Version: 2}, time.Millisecond)
	r.enqueue(p, "ns", record.Record{Key: []byte("c"), Version: 3}, time.Hour)
	r.enqueue(p, "other", record.Record{Key: []byte("d"), Version: 4}, time.Hour)
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
	p, r := newPump(t, sink.apply, vc, FIFO, "n")
	r.enqueue(p, "ns", record.Record{Key: []byte("late1"), Version: 1}, time.Second)
	r.enqueue(p, "ns", record.Record{Key: []byte("intime"), Version: 2}, time.Hour)
	vc.Advance(2 * time.Second)
	r.enqueue(p, "ns", record.Record{Key: []byte("late2"), Version: 3}, -time.Second)
	r.enqueue(p, "ns", record.Record{Key: []byte("left"), Version: 4}, time.Hour)
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

// TestJoiningMemberGetsEveryMemberOfInflightBatch: a member that joins
// while a round is on the wire is owed every update of the round in its
// range, the groups already sent and those not yet sent alike.
func TestJoiningMemberGetsEveryMemberOfInflightBatch(t *testing.T) {
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
	p, r := newPump(t, apply, vc, ByDeadline, "n1")
	r.place(t, "ns", "d", "n2")
	r.place(t, "ns", "e", "n2")
	for i, k := range []string{"a", "b", "c"} {
		r.enqueue(p, "ns", record.Record{Key: []byte(k), Version: uint64(i + 1)}, time.Minute)
	}
	r.enqueue(p, "ns", record.Record{Key: []byte("d"), Version: 4}, time.Minute)
	r.enqueue(p, "ns", record.Record{Key: []byte("z"), Version: 5}, time.Minute) // outside [a, e)
	done := make(chan struct{})
	go func() {
		p.Drain(5)
		close(done)
	}()
	<-entered // n1's group is on the wire, n2's has not been sent yet
	if st := p.Stats(); st.Pending != 5 {
		t.Fatalf("pending mid-round = %d, want all 5 in flight", st.Pending)
	}
	r.move(t, "ns", "a", "p", "n1", "n3")
	r.move(t, "ns", "d", "p", "n2", "n3")
	close(release)
	<-done
	p.Drain(10)
	mu.Lock()
	defer mu.Unlock()
	got := slices.Clone(delivered["n3"])
	sort.Strings(got)
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("n3 deliveries = %v", got)
	}
	if p.Stats().Pending != 0 {
		t.Fatalf("pending = %d after drain", p.Stats().Pending)
	}
}

// TestLeavingMemberIsOwedNothing: a member that leaves a range before
// it received an update gets no apply, is charged no failure and no
// drop, and reads fresh — whether it left while the update was queued
// or while a delivery to it was failing.
func TestLeavingMemberIsOwedNothing(t *testing.T) {
	for _, midDelivery := range []bool{false, true} {
		t.Run(fmt.Sprintf("midDelivery=%v", midDelivery), func(t *testing.T) {
			vc := clock.NewVirtual(t0)
			sink := newKeySink()
			var r routes
			apply := func(ns, node string, recs []record.Record) error {
				if node == "n2" {
					// The member loses the range while its delivery is
					// on the wire, and refuses it: its range is fenced.
					r.move(t, "ns", "k", "p", "n3")
					return errors.New("range fenced for migration")
				}
				return sink.apply(ns, node, recs)
			}
			p, r := newPump(t, apply, vc, ByDeadline, "n2")
			p.MaxAttempts = 1
			r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
			vc.Advance(10 * time.Second)
			if d := p.Tracker().Staleness("ns", "n2"); d != 10*time.Second {
				t.Fatalf("staleness of n2 while owed = %v", d)
			}
			if !midDelivery {
				r.move(t, "ns", "k", "p", "n3")
			}
			for p.Drain(10) > 0 {
			}
			if st := p.Stats(); st.Failures != 0 || st.Dropped != 0 || st.Pending != 0 {
				t.Fatalf("Stats = %+v, want no failure, no drop, nothing pending", st)
			}
			if len(p.drops) != 0 || p.Tracker().Staleness("ns", "n2") != 0 {
				t.Fatalf("drops = %+v, staleness = %v", p.drops, p.Tracker().Staleness("ns", "n2"))
			}
			if got := sink.keys("n3"); got != "[k]" {
				t.Fatalf("n3 deliveries = %v, want k", got)
			}
		})
	}
}

// TestReaddedAckerIsOwed: the member that acked a write has it only for
// the set it acked in. Once that range has left it and come back, the
// new set owes it the record like any other member.
func TestReaddedAckerIsOwed(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newKeySink()
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n1")
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
	if d := p.Tracker().Staleness("ns", "p"); d != 0 {
		t.Fatalf("acker staleness = %v, want 0", d)
	}
	r.move(t, "ns", "k", "n1")
	r.move(t, "ns", "k", "n1", "p")
	for p.Drain(10) > 0 {
	}
	if got := sink.keys("p"); got != "[k]" {
		t.Fatalf("re-added acker got %v, want k", got)
	}
	if got := sink.keys("n1"); got != "[k]" {
		t.Fatalf("n1 got %v, want k", got)
	}
}

// TestSetChangedBackReadsUnchanged: a set that changes and changes back
// between two reads of the map reads as the set it was: members are
// compared by value, so the update goes once to each member owed it,
// and not again to the acker.
func TestSetChangedBackReadsUnchanged(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newKeySink()
	var r routes
	moved := false
	apply := func(ns, node string, recs []record.Record) error {
		if !moved {
			moved = true
			r.move(t, "ns", "k", "p", "n2")
			r.move(t, "ns", "k", "p", "n1")
		}
		return sink.apply(ns, node, recs)
	}
	p, r := newPump(t, apply, vc, ByDeadline, "n1")
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
	for p.Drain(10) > 0 {
	}
	for node, want := range map[string]string{"n1": "[k]", "p": "[]", "n2": "[]"} {
		if got := sink.keys(node); got != want {
			t.Fatalf("%s got %v, want %v", node, got, want)
		}
	}
}

// TestSplitOwesNoOneAgain: a split publishes both halves of a range
// under new epochs but changes no member, so an update queued before it
// is still owed to its one secondary, and never to its acker.
func TestSplitOwesNoOneAgain(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newKeySink()
	p, r := newPump(t, sink.apply, vc, ByDeadline, "n1")
	r.enqueue(p, "ns", record.Record{Key: []byte("k"), Version: 1}, time.Minute)
	if err := r["ns"].Split([]byte("m")); err != nil {
		t.Fatal(err)
	}
	for p.Drain(10) > 0 {
	}
	if st := p.Stats(); st.Delivered != 1 || st.Pending != 0 {
		t.Fatalf("Stats = %+v, want one delivery and nothing pending", st)
	}
	if got := sink.keys("n1"); got != "[k]" {
		t.Fatalf("n1 got %v, want k", got)
	}
	if got := sink.keys("p"); got != "[]" {
		t.Fatalf("acker got %v, want nothing", got)
	}
}
