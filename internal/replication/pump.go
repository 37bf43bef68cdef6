package replication

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

// ApplyFunc delivers pre-versioned records to one node. The router's
// Apply method satisfies this.
type ApplyFunc func(namespace, nodeID string, recs []record.Record) error

// Stats summarise pump activity.
type Stats struct {
	Enqueued   int64
	Delivered  int64
	Violations int64 // delivered after their deadline
	Failures   int64 // delivery attempts that errored, per update (a failed group apply is retried per member first)
	Dropped    int64 // gave up after MaxAttempts
	Pending    int
}

// Pump drains the update queue, delivering each update to its target
// replica. A background driver runs its Worker steps, and a simulation
// loop calls Drain; both work in rounds. A round pops up to maxRound updates, the most urgent first —
// so which updates leave per unit of budget is the queue's order, as
// if they were popped one by one — groups them by destination
// (namespace, target) and sends each group as one apply: an applied
// record costs a share of a call, not a call. A group whose apply
// fails is retried one update at a time, after every other group of
// the round has had its turn and before anything is charged: a node
// rejects a whole request when one record of it is fenced, and one
// such record must not cost its neighbours an attempt, and a dead
// target must not hold up the other destinations. Attempts, backoff,
// drops, deadline violations and the staleness tracker are all
// accounted per update.
type Pump struct {
	queue   *Queue
	apply   ApplyFunc
	clk     clock.Clock
	tracker *Tracker

	// MaxAttempts bounds redelivery of a failing update. Default 5.
	MaxAttempts int

	enqueued   atomic.Int64
	delivered  atomic.Int64
	violations atomic.Int64
	failures   atomic.Int64
	dropped    atomic.Int64

	mu          sync.Mutex
	parked      []parkedUpdate // failed deliveries awaiting retry
	violationNS map[string]int64
	inflight    map[*Update]struct{} // popped, delivery in progress; keys point into a roundBuf
	droppedBy   map[string]int64     // per-target gave-up deliveries
}

// retryBackoff is how long a failed delivery stays parked per attempt
// so far, so a dead target does not monopolise the queue head.
const retryBackoff = 100 * time.Millisecond

type parkedUpdate struct {
	u       Update
	retryAt time.Time
}

// NewPump returns a pump draining queue through apply.
func NewPump(queue *Queue, apply ApplyFunc, clk clock.Clock) *Pump {
	return &Pump{
		queue:       queue,
		apply:       apply,
		clk:         clk,
		tracker:     NewTracker(clk),
		MaxAttempts: 5,
		violationNS: make(map[string]int64),
		inflight:    make(map[*Update]struct{}),
		droppedBy:   make(map[string]int64),
	}
}

// Tracker exposes the pump's staleness tracker.
func (p *Pump) Tracker() *Tracker { return p.tracker }

// Queue exposes the pump's queue (for metrics and the director).
func (p *Pump) Queue() *Queue { return p.queue }

// Enqueue schedules rec for delivery to each target with the given
// staleness bound. The write was accepted now; every target must see
// it by now+bound.
func (p *Pump) Enqueue(namespace string, rec record.Record, targets []string, bound time.Duration) {
	now := p.clk.Now()
	deadline := now.Add(bound)
	for _, target := range targets {
		// Register with the tracker before the update can be popped: a
		// worker that delivered it first would find nothing to mark
		// done, and the late registration would then never be removed.
		p.tracker.pending(namespace, target, now)
		p.queue.Push(Update{
			Namespace:  namespace,
			Rec:        rec,
			Target:     target,
			Deadline:   deadline,
			EnqueuedAt: now,
		})
		p.enqueued.Add(1)
	}
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
	recs  []record.Record
}

// Drain synchronously processes up to maxOps updates — records, however
// few applies carry them — and returns how many it attempted.
// Simulation loops call this once per tick with the tick's delivery
// budget, which models the replication bandwidth of the cluster.
func (p *Pump) Drain(maxOps int) int {
	var buf roundBuf
	n := 0
	for n < maxOps {
		k := p.round(maxOps-n, &buf)
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// round pops up to budget updates, delivers them grouped by destination
// and returns how many it popped.
func (p *Pump) round(budget int, buf *roundBuf) int {
	batch := p.popTracked(budget, buf)
	if len(batch) == 0 {
		return 0
	}
	recs := buf.recs[:0]
	for i := range batch {
		recs = append(recs, batch[i].Rec)
	}
	buf.recs = recs
	// popTracked left each destination's updates adjacent. Groups that
	// fail are set aside; their members go one by one afterwards.
	var failed [][2]int
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && sameDestination(&batch[j], &batch[i]) {
			j++
		}
		if !p.deliver(batch[i:j], recs[i:j]) {
			failed = append(failed, [2]int{i, j})
		}
		i = j
	}
	for _, g := range failed {
		for i := g[0]; i < g[1]; i++ {
			p.deliver(batch[i:i+1], recs[i:i+1])
		}
	}
	return len(batch)
}

func sameDestination(a, b *Update) bool {
	return a.Target == b.Target && a.Namespace == b.Namespace
}

// popTracked moves parked retries whose backoff has elapsed back into
// the queue, then pops up to max updates in queue order (fewer when
// their records reach maxRoundBytes), gathers each destination's
// updates next to one another and registers them as in flight — all
// under one hold of p.mu, atomically with respect to Rebind: under
// p.mu every pending update is in exactly one of queue, parked, or
// inflight, so a flip-time Rebind scan can never miss one
// mid-transition.
func (p *Pump) popTracked(max int, buf *roundBuf) []Update {
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
	// Gather each destination's updates behind the first of them. Swaps
	// disturb the order of what is yet to be gathered, which nothing
	// depends on: the whole batch leaves in this round, and applies are
	// last-write-wins by version.
	for i := 0; i < len(batch); {
		j := i + 1
		for k := j; k < len(batch); k++ {
			if sameDestination(&batch[k], &batch[i]) {
				batch[j], batch[k] = batch[k], batch[j]
				j++
			}
		}
		i = j
	}
	for i := range batch {
		p.inflight[&batch[i]] = struct{}{}
	}
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
// as one apply and settles every member by its outcome. It reports
// false, with nothing settled or charged, when the apply of a group of
// several failed: the caller then delivers the members one at a time,
// and a group of one is where an error is final. The post-delivery
// bookkeeping (deregister, park, drop) of the whole group happens
// under p.mu in one step, so every update transitions atomically
// between the states a Rebind scan observes.
func (p *Pump) deliver(group []Update, recs []record.Record) bool {
	namespace, target := group[0].Namespace, group[0].Target
	err := p.apply(namespace, target, recs)
	if err != nil && len(group) > 1 {
		return false
	}
	if n := int64(len(group)); err != nil {
		p.failures.Add(n)
	} else {
		p.delivered.Add(n)
	}
	p.mu.Lock()
	now := p.clk.Now()
	for i := range group {
		u := &group[i]
		delete(p.inflight, u)
		u.Attempts++
		if err != nil && u.Attempts < p.MaxAttempts {
			// Park the update until its backoff elapses so a dead target
			// cannot monopolise the queue head and starve deliverable
			// updates.
			backoff := retryBackoff * time.Duration(u.Attempts)
			p.parked = append(p.parked, parkedUpdate{u: *u, retryAt: now.Add(backoff)})
			continue
		}
		if err != nil {
			p.dropped.Add(1)
			p.droppedBy[target]++
		} else if now.After(u.Deadline) {
			p.violations.Add(1)
			p.violationNS[namespace]++
		}
		p.tracker.done(namespace, target, u.EnqueuedAt)
	}
	p.mu.Unlock()
	return true
}

// DroppedTo reports how many deliveries to node the pump has given up
// on (MaxAttempts exhausted). The repair manager samples this at a
// node's down transition and compares on return: an unchanged counter
// means every update that accumulated while the node was away is still
// queued and will converge, so the replica can rejoin as-is; a higher
// counter means it is irrecoverably stale and must be demoted and
// re-replicated through the migration protocol.
func (p *Pump) DroppedTo(node string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.droppedBy[node]
}

// Rebind clones every pending update for a key in [start, end) of the
// namespace to each of the added replicas. The migration manager calls
// this (through the coordinator's OnFlip hook) after flipping routing
// and before lifting the donor's write fence: anything the fence's
// final delta could not have shipped — updates still queued, parked, or in
// flight at the coordinator — is duplicated to the replicas that just
// caught up, so a range's new members can never permanently miss a
// write that was acknowledged before the handoff. Duplicate deliveries
// are harmless (applies are last-write-wins by version).
func (p *Pump) Rebind(namespace string, start, end []byte, added []string) int {
	if len(added) == 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var matches []Update
	seen := make(map[string]bool) // key \x00 version — dedupe multi-target enqueues
	collect := func(u Update) {
		if u.Namespace != namespace || start != nil && bytes.Compare(u.Rec.Key, start) < 0 ||
			end != nil && bytes.Compare(u.Rec.Key, end) >= 0 {
			return
		}
		k := string(u.Rec.Key) + "\x00" + strconv.FormatUint(u.Rec.Version, 36)
		if seen[k] {
			return
		}
		seen[k] = true
		matches = append(matches, u)
	}
	p.queue.ForEach(collect)
	for _, pu := range p.parked {
		collect(pu.u)
	}
	for u := range p.inflight {
		collect(*u)
	}
	n := 0
	for _, u := range matches {
		for _, target := range added {
			if u.Target == target {
				continue
			}
			clone := u
			clone.Target = target
			clone.Attempts = 0
			p.queue.Push(clone)
			p.tracker.pending(clone.Namespace, target, clone.EnqueuedAt)
			p.enqueued.Add(1)
			n++
		}
	}
	return n
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

// Stats returns a snapshot of pump counters. Pending includes parked
// retries and deliveries in flight.
func (p *Pump) Stats() Stats {
	p.mu.Lock()
	parked := len(p.parked) + len(p.inflight)
	p.mu.Unlock()
	return Stats{
		Enqueued:   p.enqueued.Load(),
		Delivered:  p.delivered.Load(),
		Violations: p.violations.Load(),
		Failures:   p.failures.Load(),
		Dropped:    p.dropped.Load(),
		Pending:    p.queue.Len() + parked,
	}
}
