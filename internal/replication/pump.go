package replication

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/clock"
	"scads/internal/partition"
	"scads/internal/record"
)

// ApplyFunc delivers pre-versioned records to one node. The router's
// Apply method satisfies this.
type ApplyFunc func(namespace, nodeID string, recs []record.Record) error

// Stats summarise pump activity.
type Stats struct {
	Enqueued   int64 // updates queued: accepted writes some member was owed
	Delivered  int64
	Violations int64 // deliveries applied after their deadline
	Failures   int64 // deliveries that errored on their own to a node still a member (a failed group apply is retried per delivery first)
	Dropped    int64 // deliveries given up after MaxAttempts
	Pending    int
}

// Drop is the pump's evidence that Member missed a write: a delivery to
// it of a key in Namespace's range [Start, End), as the range stood
// when the pump gave up on the delivery. A member with a drop holds a
// stale copy of that span until it is rebuilt.
type Drop struct {
	Namespace  string
	Start, End []byte
	Member     string
}

func (d Drop) same(o Drop) bool {
	return d.Namespace == o.Namespace && d.Member == o.Member && bytes.Equal(d.Start, o.Start) && bytes.Equal(d.End, o.End)
}

// Pump drains the update queue. It is the one owner of who still
// needs a record: an update is owed to every member of its key's
// current replica set that has not received it since the set last
// changed. The pump reads the set from the routing map when an update
// is enqueued, each time it is popped, and again after its deliveries,
// before it settles, and compares it with the set it last read by
// value: a member that left is owed nothing, and a set whose members
// or order changed makes every member of it owed again, while a split
// alone changes no set. Applies are last-write-wins by version, so a
// duplicate is harmless.
//
// A background driver runs its Worker steps, and a simulation loop
// calls Drain; both work in rounds. A round pops up to maxRound
// updates, the most urgent first — so which updates leave per unit of
// budget is the queue's order, as if they were popped one by one —
// groups their deliveries by destination (namespace, member) and sends
// each group as one apply: an applied record costs a share of a call,
// not a call. A group whose apply fails is retried one delivery at a
// time, after every other group of the round has had its turn and
// before anything is charged: a node rejects a whole request when one
// record of it is fenced, and one such record must not cost its
// neighbours an attempt, and a dead member must not hold up the other
// destinations. Attempts, backoff, drops, deadline violations and the
// staleness tracker are all accounted per delivery. A delivery given
// up on at MaxAttempts leaves a Drop naming its member and the span of
// the range it was owed under; the repair manager takes these to
// rebuild each such member in that span alone.
type Pump struct {
	queue   *Queue
	apply   ApplyFunc
	maps    func(namespace string) (*partition.Map, bool)
	clk     clock.Clock
	tracker *Tracker

	// MaxAttempts bounds redelivery of a failing update. Default 5.
	MaxAttempts int

	enqueued atomic.Int64

	mu          sync.Mutex
	stats       Stats          // Delivered, Violations, Failures and Dropped
	parked      []parkedUpdate // failed deliveries awaiting retry
	inflight    int            // popped, not yet settled, parked or queued again
	violationNS map[string]int64
	drops       []Drop // one per (range span, member) given up on, until taken
}

// retryBackoff is how long a failed delivery stays parked per attempt
// so far, so a dead member does not monopolise the queue head.
const retryBackoff = 100 * time.Millisecond

type parkedUpdate struct {
	u       Update
	retryAt time.Time
}

// NewPump returns a pump draining queue through apply. maps resolves a
// namespace to its partition map, whose ranges say who is owed each
// update; the router's Map method satisfies it.
func NewPump(queue *Queue, apply ApplyFunc, maps func(namespace string) (*partition.Map, bool), clk clock.Clock) *Pump {
	return &Pump{
		queue:       queue,
		apply:       apply,
		maps:        maps,
		clk:         clk,
		tracker:     NewTracker(clk),
		MaxAttempts: 5,
		violationNS: make(map[string]int64),
	}
}

// Tracker exposes the pump's staleness tracker.
func (p *Pump) Tracker() *Tracker { return p.tracker }

// Queue exposes the pump's queue (for metrics and the director).
func (p *Pump) Queue() *Queue { return p.queue }

// Enqueue schedules rec, just applied at replicas[0], for the rest of
// its key's replica set under the given staleness bound: the write was
// accepted now, and every member owed it must see it by now+bound.
// replicas is the replica set of the range that acknowledged the
// write. If the key's set is still that one, the acker has the record
// and the other members are owed it; if it has changed since, every
// member of the current one is. An update owed to nobody is not
// queued.
func (p *Pump) Enqueue(namespace string, rec record.Record, replicas []string, bound time.Duration) {
	now := p.clk.Now()
	u := Update{Namespace: namespace, Rec: rec, Deadline: now.Add(bound), EnqueuedAt: now}
	u.Replicas = p.lookup(namespace, rec.Key).Replicas
	u.owed = everyone(len(u.Replicas))
	if slices.Equal(u.Replicas, replicas) {
		u.owed &^= 1
	}
	if u.owed == 0 {
		return
	}
	// Register with the tracker before the update can be popped: a
	// worker that delivered it first would find nothing to mark done,
	// and the late registration would then never be removed.
	for i, id := range u.Replicas {
		if u.owed&(1<<i) != 0 {
			p.tracker.pending(namespace, id, now)
		}
	}
	p.queue.Push(u)
	p.enqueued.Add(1)
}

// lookup reads key's current range, read-only, or a range with no
// replicas when the namespace has no map.
func (p *Pump) lookup(namespace string, key []byte) partition.Range {
	if m, ok := p.maps(namespace); ok {
		return m.Lookup(key)
	}
	return partition.Range{}
}

// everyone is the owed mask of a set of n members.
func everyone(n int) uint64 { return 1<<n - 1 }

// follow reads the current range of u's key. When its replica set
// differs from the set u last read, every member of the new set is
// owed u, and a member of the old one that is not in the new one is
// owed nothing; the tracker follows, and the attempts start over. It
// returns the range and whether its set was new.
func (p *Pump) follow(u *Update) (partition.Range, bool) {
	rng := p.lookup(u.Namespace, u.Rec.Key)
	if slices.Equal(rng.Replicas, u.Replicas) {
		return rng, false
	}
	for _, id := range rng.Replicas {
		if !u.owes(id) {
			p.tracker.pending(u.Namespace, id, u.EnqueuedAt)
		}
	}
	for i, id := range u.Replicas {
		if u.owed&(1<<i) != 0 && !slices.Contains(rng.Replicas, id) {
			p.tracker.done(u.Namespace, id, u.EnqueuedAt)
		}
	}
	u.Replicas, u.owed, u.Attempts = rng.Replicas, everyone(len(rng.Replicas)), 0
	return rng, true
}

const (
	// maxRound bounds how many updates one round pops, and so how many
	// records one apply can carry.
	maxRound = 64
	// maxRoundBytes ends a round's popping early once the encoded
	// records reach it, which keeps every group's request far below the
	// RPC frame limit whatever the record size.
	maxRoundBytes = 1 << 20
)

// roundBuf is the scratch one driver of rounds (a Drain call, a
// Worker) reuses from round to round.
type roundBuf struct {
	batch []Update
	sends []send          // the round's deliveries, each destination's adjacent
	recs  []record.Record // sends[i]'s record
}

// roundBufs keeps Drain's scratch from call to call.
var roundBufs = sync.Pool{New: func() any { return new(roundBuf) }}

// send is one delivery of a round: batch[u] to its member Replicas[m].
type send struct{ u, m int }

// Drain synchronously processes up to maxOps updates — records, each
// sent to every member of its key's current replica set it is owed to,
// however few applies carry them — and returns how many it attempted.
// Simulation loops call this once per tick with the tick's delivery
// budget, which models the replication bandwidth of the cluster.
func (p *Pump) Drain(maxOps int) int {
	buf := roundBufs.Get().(*roundBuf)
	defer roundBufs.Put(buf)
	n := 0
	for n < maxOps {
		k := p.round(maxOps-n, buf)
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// round pops up to budget updates, delivers each to the members it is
// owed to, grouped by destination, settles them and returns how many
// it popped.
func (p *Pump) round(budget int, buf *roundBuf) int {
	batch := p.pop(budget, buf)
	if len(batch) == 0 {
		return 0
	}
	sends := buf.sends[:0]
	for i := range batch {
		u := &batch[i]
		p.follow(u)
		for m := range u.Replicas {
			if u.owed&(1<<m) != 0 {
				sends = append(sends, send{i, m})
			}
		}
	}
	// Gather each destination's deliveries behind the first of them.
	// Swaps disturb the order of what is yet to be gathered, which
	// nothing depends on: the whole round leaves now, and applies are
	// last-write-wins by version.
	for i := 0; i < len(sends); {
		j := i + 1
		for k := j; k < len(sends); k++ {
			if p.sameDestination(batch, sends[k], sends[i]) {
				sends[j], sends[k] = sends[k], sends[j]
				j++
			}
		}
		i = j
	}
	recs := buf.recs[:0]
	for _, s := range sends {
		recs = append(recs, batch[s.u].Rec)
	}
	buf.sends, buf.recs = sends, recs
	// Groups that fail are set aside; their members go one by one
	// afterwards.
	var failed [][2]int
	for i := 0; i < len(sends); {
		j := i + 1
		for j < len(sends) && p.sameDestination(batch, sends[j], sends[i]) {
			j++
		}
		if !p.deliver(batch, sends[i:j], recs[i:j]) && j-i > 1 {
			failed = append(failed, [2]int{i, j})
		}
		i = j
	}
	for _, g := range failed {
		for i := g[0]; i < g[1]; i++ {
			p.deliver(batch, sends[i:i+1], recs[i:i+1])
		}
	}
	p.settle(batch)
	return len(batch)
}

func (p *Pump) sameDestination(batch []Update, a, b send) bool {
	ua, ub := &batch[a.u], &batch[b.u]
	return ua.Replicas[a.m] == ub.Replicas[b.m] && ua.Namespace == ub.Namespace
}

// pop moves parked retries whose backoff has elapsed back into the
// queue, then pops up to max updates in queue order (fewer when their
// records reach maxRoundBytes) and counts them in flight.
func (p *Pump) pop(max int, buf *roundBuf) []Update {
	if max > maxRound {
		max = maxRound
	}
	batch := buf.batch[:0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.parked) > 0 {
		now := p.clk.Now()
		still := p.parked[:0]
		for _, pu := range p.parked {
			if pu.retryAt.After(now) {
				still = append(still, pu)
			} else {
				p.queue.Push(pu.u)
			}
		}
		clear(p.parked[len(still):])
		p.parked = still
	}
	for size := 0; len(batch) < max && size < maxRoundBytes; {
		u, ok := p.queue.Pop()
		if !ok {
			break
		}
		size += u.Rec.MarshaledSize()
		batch = append(batch, u)
	}
	p.inflight += len(batch)
	buf.batch = batch
	return batch
}

// Worker returns one background worker's step: a round on a buffer
// the step keeps from round to round, then 5ms of rest once a round
// finds the queue empty. The coordinator's driver runs each worker
// under clock.Loop.
func (p *Pump) Worker() func() time.Duration {
	var buf roundBuf
	return func() time.Duration {
		if p.round(maxRound, &buf) > 0 {
			return 0
		}
		return 5 * time.Millisecond
	}
}

// deliver sends one destination's group (recs[i] is group[i]'s record)
// as one apply. Applied, every delivery of the group is done: its
// member has the record. It reports false, with nothing done, when the
// apply failed; the members stay owed, and settle charges a delivery
// that failed alone.
func (p *Pump) deliver(batch []Update, group []send, recs []record.Record) bool {
	first := &batch[group[0].u]
	namespace, member := first.Namespace, first.Replicas[group[0].m]
	if err := p.apply(namespace, member, recs); err != nil {
		return false
	}
	now := p.clk.Now()
	p.mu.Lock()
	p.stats.Delivered += int64(len(group))
	for _, s := range group {
		u := &batch[s.u]
		u.owed &^= 1 << s.m
		if now.After(u.Deadline) {
			p.stats.Violations++
			p.violationNS[namespace]++
		}
		p.tracker.done(namespace, member, u.EnqueuedAt)
	}
	p.mu.Unlock()
	return true
}

// settle reads each update's set again after the round's deliveries.
// A member still owed then is one whose delivery failed: if it is
// still a member, the failure counts. An update owed to a new set goes
// back into the queue at once; one still owed to the set it was
// delivered to parks for a backoff, or at MaxAttempts is given up on
// for every member still owed, each leaving a Drop; one owed to nobody
// is settled.
func (p *Pump) settle(batch []Update) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clk.Now()
	for i := range batch {
		u := &batch[i]
		failed, was := u.owed, u.Replicas
		rng, moved := p.follow(u)
		for m, id := range was {
			if failed&(1<<m) != 0 && (!moved || slices.Contains(u.Replicas, id)) {
				p.stats.Failures++
			}
		}
		switch {
		case u.owed == 0: // settled
		case moved:
			p.queue.Push(*u)
		case u.Attempts+1 < p.MaxAttempts:
			// Park the update until its backoff elapses so a dead member
			// cannot monopolise the queue head and starve deliverable
			// updates.
			u.Attempts++
			p.parked = append(p.parked, parkedUpdate{u: *u, retryAt: now.Add(retryBackoff * time.Duration(u.Attempts))})
		default:
			for m, id := range u.Replicas {
				if u.owed&(1<<m) != 0 {
					p.stats.Dropped++
					p.addDrop(Drop{Namespace: u.Namespace, Start: rng.Start, End: rng.End, Member: id})
					p.tracker.done(u.Namespace, id, u.EnqueuedAt)
				}
			}
		}
	}
	p.inflight -= len(batch)
}

func (p *Pump) addDrop(d Drop) {
	if !slices.ContainsFunc(p.drops, d.same) {
		p.drops = append(p.drops, d)
	}
}

// ReturnDrop hands back a drop taken by TakeDrops that could not be
// acted on yet, for a later call to take again.
func (p *Pump) ReturnDrop(d Drop) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.addDrop(d)
}

// TakeDrops removes and returns the drops of every member but those in
// keep, whose drops stay for a later call. The repair manager takes
// them once a sweep.
func (p *Pump) TakeDrops(keep []string) []Drop {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Drop
	p.drops = slices.DeleteFunc(p.drops, func(d Drop) bool {
		if slices.Contains(keep, d.Member) {
			return false
		}
		out = append(out, d)
		return true
	})
	return out
}

// AtRisk counts undelivered updates — queued or parked awaiting a
// retry — whose deadline falls within margin of now. This is the
// §3.3.2 "in danger of getting behind schedule" signal the director
// consumes; parked updates count because a severed replica link parks
// every delivery while its deadlines keep approaching.
func (p *Pump) AtRisk(margin time.Duration) int {
	now := p.clk.Now()
	n := p.queue.AtRisk(now, margin)
	limit := now.Add(margin)
	p.mu.Lock()
	for _, pu := range p.parked {
		if !pu.u.Deadline.After(limit) {
			n++
		}
	}
	p.mu.Unlock()
	return n
}

// ViolationsFor reports deadline violations for one namespace — the
// per-staleness-class measurement the E8 experiment compares across
// queue disciplines.
func (p *Pump) ViolationsFor(namespace string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.violationNS[namespace]
}

// Stats returns a snapshot of pump counters. Pending counts updates
// queued, parked for a retry or in flight.
func (p *Pump) Stats() Stats {
	p.mu.Lock()
	st := p.stats
	st.Pending = len(p.parked) + p.inflight
	p.mu.Unlock()
	st.Enqueued = p.enqueued.Load()
	st.Pending += p.queue.Len()
	return st
}
