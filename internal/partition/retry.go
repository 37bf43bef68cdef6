package partition

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"scads/internal/clock"
	"scads/internal/rpc"
)

// This file is the request-execution core: the one place that decides
// what a failed attempt means and how long a request may be delayed by
// it. The contract (ARCHITECTURE.md, "Request execution"): a write
// fence, a dead node and an overloaded node delay a request, they never
// fail it until its budget is spent; anything else a node says is the
// request's answer. Every coordinator path — get, put, delete, apply,
// scan — hands execute an attempt and gets back the answer or the
// uniform give-up error of the last fault it met.

// ErrNoReplicaAvailable is returned when every replica of the target
// range is down or unreachable.
var ErrNoReplicaAvailable = errors.New("partition: no replica available")

// An attempt performs one round trip of a request against the node at
// addr, which currently serves rng, and returns the transport's answer
// verbatim. Attempts are the only code in this package that touches the
// transport (scads-vet's rpcretry rule); what the answer means is
// decided here, once.
type attempt func(rng Range, addr string) (rpc.Response, error)

// class is what one attempt's failure means for the request.
type class uint8

const (
	classOK         class = iota
	classDown             // the replica could not answer: fail over, then wait out the failover flip
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
// client request (a batch fallback's keys, a scan's concurrent
// sub-intervals): a permanent fault then costs the request one budget,
// not one per part. The clock is wall-clock even under a simulated
// cluster clock, because recovery is driven by the repair and migration
// goroutines, not by time — over TCP a single attempt can burn a whole
// dial timeout, which is also why the allowance is not attempt-counted.
//
// Fence pauses are deliberately not charged here: execute counts them
// per call, so a write that waited out a crash failover still gets its
// full fence allowance when the promoted primary is briefly fenced by
// the RF-repair handoff that follows.
type budget struct {
	deadline atomic.Int64 // give-up time in Unix nanoseconds; 0 until the first lost round
}

// wait sleeps the pause a lost round calls for, cut to what is left of
// the budget, and reports false once nothing is left.
func (b *budget) wait(clk clock.Clock, round outcome) bool {
	pause := rpc.DownRetryPause
	if round.class == classOverloaded {
		pause = round.hint
	}
	now := clk.Now().UnixNano()
	b.deadline.CompareAndSwap(0, now+int64(rpc.DownRetryBudget))
	left := time.Duration(b.deadline.Load() - now)
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
		resp, round := r.offer(rng, policy, try)
		switch round.class {
		case classOK:
			return resp, rng, nil
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
func (r *Router) offer(rng Range, policy ReadPolicy, try attempt) (rpc.Response, outcome) {
	replicas, first := r.order(rng.Replicas, policy)
	round := outcome{class: classDown}
	for i := range replicas {
		resp, o := r.tryNode(replicas[(first+i)%len(replicas)], rng, try)
		switch o.class {
		case classOverloaded:
			round = o
		case classDown:
			if round.class == classDown {
				round = o
			}
		default:
			return resp, o
		}
	}
	return rpc.Response{}, round
}

// order returns the replicas a request under policy may be offered to
// and the index to start from.
func (r *Router) order(replicas []string, policy ReadPolicy) ([]string, int) {
	switch {
	case policy == writePrimary:
		return replicas[:1], 0
	case policy == ReadAny && len(replicas) > 1:
		return replicas, int(r.rr.Add(1) % uint64(len(replicas)))
	}
	return replicas, 0
}

// tryNode makes one attempt against one node and classifies it. It is
// the whole execution of a request pinned to a node (GetFrom, Apply),
// where failing over or waiting would defeat the pinning.
func (r *Router) tryNode(nodeID string, rng Range, try attempt) (rpc.Response, outcome) {
	addr, ok := r.addrOf(nodeID)
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

// send executes a request that is the same whichever replica serves it
// (everything but scans).
func (r *Router) send(key []byte, policy ReadPolicy, b *budget, req rpc.Request) (rpc.Response, Range, error) {
	return r.execute(req.Namespace, key, policy, b, func(_ Range, addr string) (rpc.Response, error) {
		return r.transport.Call(addr, req)
	})
}

// sendTo makes req's one attempt against a pinned node.
func (r *Router) sendTo(nodeID string, req rpc.Request) (rpc.Response, error) {
	resp, o := r.tryNode(nodeID, Range{}, func(_ Range, addr string) (rpc.Response, error) {
		return r.transport.Call(addr, req)
	})
	return resp, o.giveUp()
}
