package partition

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"scads/internal/clock"
	"scads/internal/rpc"
)

// This file is the request-execution core: the one place that decides
// which replica a request is offered to, what a failed attempt means and
// how long a request may be delayed by it. The contract
// (ARCHITECTURE.md, "Request execution"): a write fence, a dead node and
// an overloaded node delay a request, they never fail it until its
// budget is spent; a replica over its namespace's declared staleness
// bound is asked only when the namespace puts availability first;
// anything else a node says is the request's answer. Every coordinator
// path — get, put, delete, apply, scan — hands execute an attempt and
// gets back the answer or the uniform give-up error of the last fault it
// met.

// ErrNoReplicaAvailable is returned when every replica of the target
// range is down or unreachable.
var ErrNoReplicaAvailable = errors.New("partition: no replica available")

// ErrStaleReplicas is returned when only replicas over the namespace's
// staleness bound could answer a read and the namespace ranks read
// consistency above availability (§3.3.1).
var ErrStaleReplicas = errors.New("partition: staleness bound unsatisfiable and read-consistency prioritised over availability")

// errRefused is the fault of a replica whose answer the read's caller
// would not accept (GetIf): it fails over like a replica that is down.
var errRefused = errors.New("answer below the session's floor")

// Bounds is the coordinator's side of the declared staleness bounds,
// handed to the router once (HoldBack): the replication tracker, the
// namespaces' specs and the contention log behind one question each.
type Bounds interface {
	// Stale reports whether nodeID's copy of namespace is over the
	// namespace's declared bound right now.
	Stale(namespace, nodeID string) bool
	// ServeStale is the namespace's priority order: whether a read that
	// only stale replicas could answer is served by them (availability
	// first) or refused.
	ServeStale(namespace string) bool
	// Contended notes that a read of namespace met that choice, and
	// which way it went.
	Contended(namespace string, served bool)
	// Clock is the clock staleness is measured on; a read stalling for
	// a fresh replica waits on it.
	Clock() clock.Clock
}

// An attempt performs one round trip of a request against the node at
// addr, which currently serves rng, and returns the transport's answer
// verbatim (GetIf's turns an answer its caller refuses into the
// replica's fault). Attempts are the only code in this package that touches the
// transport (internal/lint's rpcretry analyzer); what the answer means is
// decided here, once.
type attempt func(rng Range, addr string) (rpc.Response, error)

// class is what one attempt's failure means for the request.
type class uint8

const (
	classOK         class = iota
	classDown             // the replica could not answer: fail over, then wait out the failover flip
	classStale            // only replicas held back as stale are left and the namespace refuses them: stall for a fresh one, then give up
	classOverloaded       // the replica shed the request: fail over, then wait its retry-after hint
	classFenced           // the range is mid-handoff: re-read the map after the fence pause
	classFatal            // the node answered with a semantic error: the request's result
)

// outcome is a classified attempt (or a whole round of them).
type outcome struct {
	class class
	hint  time.Duration // the retry-after hint of an overloaded outcome
	err   error         // the classified error; nil for a node the directory marks down
}

// classify maps an attempt's (non-nil) error onto the retry contract,
// across error wrapping and across the wire boundary (node errors
// arrive re-materialised from strings). transport says the error came
// from the transport rather than from a node's reply: a transport that
// failed for any reason means this replica could not answer, so such
// an error is never the request's result.
func classify(err error, transport bool) outcome {
	switch {
	case rpc.IsOverloaded(err):
		return outcome{class: classOverloaded, hint: rpc.RetryAfter(err), err: err}
	case rpc.IsFenced(err):
		return outcome{class: classFenced, err: err}
	case transport || rpc.IsUnreachable(err):
		return outcome{class: classDown, err: err}
	default:
		return outcome{class: classFatal, err: err}
	}
}

// giveUp is the error a request reports when it stops at this
// outcome: the same error for the same last fault on every path.
func (o outcome) giveUp() error {
	switch o.class {
	case classOK:
		return nil
	case classOverloaded:
		return rpc.Overloaded(o.hint, "retry budget exhausted")
	case classFenced:
		return rpc.ErrFenced
	case classStale:
		return ErrStaleReplicas
	case classDown:
		if o.err == nil {
			return ErrNoReplicaAvailable
		}
		return fmt.Errorf("%w: %v", ErrNoReplicaAvailable, o.err)
	default:
		return o.err
	}
}

// budget is the wall-clock allowance for rounds lost to dead or
// overloaded replicas. Its deadline starts at the first lost round, so
// a request that succeeds first time never reads the clock; the zero
// value is a fresh budget. One budget may be shared by the parts of one
// client request (the records a failed Deliver group sends alone, a
// scan's concurrent sub-intervals): a permanent fault then costs the
// request one budget, not one per part. The clock is wall-clock even
// under a simulated cluster clock, because recovery is driven by the
// repair and migration goroutines, not by time — over TCP a single
// attempt can burn a whole dial timeout, which is also why the
// allowance is not attempt-counted.
//
// Fence pauses are deliberately not charged here: execute counts them
// per call, so a write that waited out a crash failover still gets its
// full fence allowance when the promoted primary is briefly fenced by
// the RF-repair handoff that follows.
//
// Rounds lost to staleness have their own allowance, stall, and their
// own deadline on the bounds' clock (replication, unlike recovery, runs
// on the cluster's clock). Only GetIf sets it, on a budget nothing
// shares.
type budget struct {
	deadline deadline // give-up time of the lost rounds
	stall    time.Duration
	staleBy  deadline // give-up time of a stalling read
}

// deadline is a give-up time, set at a request's first lost round. It
// keeps the clock's own time.Time, so on the wall clock the allowance
// is measured on the monotonic reading: a slewed or stepped wall clock
// neither shortens nor stretches it.
type deadline struct {
	state atomic.Int32 // unset, being set, set
	at    time.Time
}

// from returns the deadline, first setting it to allowance after now.
func (d *deadline) from(now time.Time, allowance time.Duration) time.Time {
	if d.state.CompareAndSwap(0, 1) {
		d.at = now.Add(allowance)
		d.state.Store(2)
	}
	for d.state.Load() != 2 {
		runtime.Gosched()
	}
	return d.at
}

// stalePoll is how often a stalling read asks again for a fresh replica.
const stalePoll = 5 * time.Millisecond

// wait sleeps the pause a lost round calls for, cut to what is left of
// the budget, and reports false once nothing is left.
func (b *budget) wait(clk clock.Clock, round outcome) bool {
	pause := rpc.DownRetryPause
	if round.class == classOverloaded {
		pause = round.hint
	}
	return lapse(clk, &b.deadline, rpc.DownRetryBudget, pause)
}

// lapse sleeps pause, cut to what is left until deadline — which it sets
// to allowance from now at a request's first lost round, so the time the
// rounds' attempts take is charged like the sleeps — and reports false
// once nothing is left.
func lapse(clk clock.Clock, d *deadline, allowance, pause time.Duration) bool {
	now := clk.Now()
	left := d.from(now, allowance).Sub(now)
	if left <= 0 {
		return false
	}
	clk.Sleep(min(pause, left))
	return true
}

// execute runs one request to completion. Each round re-reads the
// partition map — so the first attempt after a migration or failover
// flip lands on the new holder — offers the request to the replicas of
// key's range in policy order, and then fails over, pauses or gives up
// by the class of what came back. It returns the answer and the range
// that gave it.
func (r *Router) execute(namespace string, key []byte, policy ReadPolicy, b *budget, try attempt) (rpc.Response, Range, error) {
	fences := 0
	for {
		m, err := r.mapFor(namespace)
		if err != nil {
			return rpc.Response{}, Range{}, err
		}
		rng := m.Lookup(key)
		resp, round := r.offer(namespace, rng, policy, try)
		switch round.class {
		case classOK:
			return resp, rng, nil
		case classStale:
			if lapse(r.bounds.Clock(), &b.staleBy, b.stall, stalePoll) {
				continue
			}
			r.bounds.Contended(namespace, false)
		case classFenced:
			if fences++; fences <= rpc.FenceRetryLimit {
				r.clk.Sleep(rpc.FenceRetryPause)
				continue
			}
		case classDown, classOverloaded:
			if b.wait(r.clk, round) {
				continue
			}
		}
		return rpc.Response{}, Range{}, round.giveUp()
	}
}

// offer is one round: the request goes to rng's replicas in policy
// order until one answers. A fence ends the round at once — every
// replica of a fenced range is about to flip, so the map is worth
// re-reading and the siblings are not worth asking. Otherwise the round
// is lost to overload if any live replica shed it (its hint outranks a
// dead sibling's fixed pause), else to the replicas being down.
//
// A ReadAny round first passes over the replicas that are over the
// namespace's staleness bound. If nothing else answered and nothing
// shed, the namespace's priority order arbitrates (§3.3.1) before any
// pause: availability first offers the request to the held-back
// replicas in the same order, read consistency first loses the round
// to staleness.
func (r *Router) offer(namespace string, rng Range, policy ReadPolicy, try attempt) (rpc.Response, outcome) {
	replicas, first := r.order(rng.Replicas, policy)
	bounded := policy == ReadAny && r.bounds != nil
	round := outcome{class: classDown}
	for stale := false; ; stale = true {
		held := false
		for i := range replicas {
			id := replicas[(first+i)%len(replicas)]
			if bounded && r.bounds.Stale(namespace, id) != stale {
				held = true
				continue
			}
			resp, o := r.tryNode(id, rng, try)
			switch o.class {
			case classOverloaded:
				round = o
			case classDown:
				if round.class == classDown {
					round = o
				}
			default:
				if stale && o.class == classOK {
					r.bounds.Contended(namespace, true)
				}
				return resp, o
			}
		}
		if stale || !held || round.class != classDown {
			return rpc.Response{}, round
		}
		if !r.bounds.ServeStale(namespace) {
			return rpc.Response{}, outcome{class: classStale}
		}
	}
}

// order returns the replicas a request under policy may be offered to
// and the index to start from.
func (r *Router) order(replicas []string, policy ReadPolicy) ([]string, int) {
	switch {
	case policy == Primary:
		return replicas[:1], 0
	case len(replicas) > 1:
		return replicas, int(r.rr.Add(1) % uint64(len(replicas)))
	}
	return replicas, 0
}

// tryNode makes one attempt against one node and classifies it. It is
// the whole execution of a request pinned to a node (GetFrom, Apply),
// where failing over or waiting would defeat the pinning.
func (r *Router) tryNode(nodeID string, rng Range, try attempt) (rpc.Response, outcome) {
	addr, ok := r.dir.Addr(nodeID)
	if !ok {
		return rpc.Response{}, outcome{class: classDown}
	}
	resp, err := try(rng, addr)
	switch {
	case err != nil:
		return rpc.Response{}, classify(err, true)
	case resp.Err != "":
		return rpc.Response{}, classify(resp.Error(), false)
	}
	return resp, outcome{}
}

// sendTo makes req's one attempt against a pinned node.
func (r *Router) sendTo(nodeID string, req rpc.Request) (rpc.Response, error) {
	resp, o := r.tryNode(nodeID, Range{}, func(_ Range, addr string) (rpc.Response, error) {
		return r.transport.Call(addr, req)
	})
	return resp, o.giveUp()
}
