package partition

import (
	"errors"
	"sync/atomic"

	"scads/internal/record"
	"scads/internal/rpc"
)

// defaultScanParallelism bounds how many per-range sub-scans one scan
// fans out concurrently (tests narrow it through ScanOptions.parallelism).
const defaultScanParallelism = 8

// ScanOptions tunes one scatter-gather scan.
type ScanOptions struct {
	// Limit caps the number of returned records. Required (> 0): scale
	// independence forbids unbounded scans.
	Limit int
	// Policy selects which replica serves each sub-scan.
	Policy ReadPolicy
	// Projection names the columns storage nodes should narrow each
	// row to before returning it (empty = full stored rows).
	Projection []string
	// Preds are conjunctive filters evaluated node-side; rows failing
	// them never cross the wire and do not count against Limit.
	Preds []rpc.ScanPred
	// Tenant is the admission-control identity the scan is accounted
	// to; it rides each sub-scan's request envelope so node-side
	// accounting can attribute the bytes.
	Tenant string

	// parallelism overrides defaultScanParallelism when non-zero; 1
	// runs the sub-scans one range at a time.
	parallelism int
}

// scanSub is one fixed sub-interval of the scan, assigned to a worker.
// The interval never changes after fan-out — retries re-resolve which
// range currently serves it, so a concurrent split or migration moves
// the request, not the bounds — which keeps sub-results disjoint and
// their concatenation in fan-out order globally key-sorted.
type scanSub struct {
	start, end []byte

	done chan struct{} // closed once the first page is in
	page scanPage
}

// scanPage is one node round-trip's worth of a sub-interval.
type scanPage struct {
	recs   []record.Record
	more   bool
	resume []byte
	err    error
}

// Scan performs a bounded range read across however many partitions
// [start, end) spans, in key order, up to limit records. It is
// ScanOpts with default options; see there for the execution model.
func (r *Router) Scan(namespace string, start, end []byte, limit int, policy ReadPolicy) ([]record.Record, error) {
	return r.ScanOpts(namespace, start, end, ScanOptions{Limit: limit, Policy: policy})
}

// ScanOpts executes one bounded range read as a parallel
// scatter-gather pipeline:
//
//   - scatter: the overlapping ranges of the partition map become
//     fixed sub-intervals, fanned out to at most
//     defaultScanParallelism concurrent sub-scans, each with a
//     proportional share of the limit pushed down (plus slack for
//     skew);
//   - per-range resilience: a sub-scan that hits a write fence
//     (mid-migration handoff), an unreachable or a shedding replica
//     is retried under the same request-execution contract as every
//     other path (retry.go), all sub-scans sharing one budget;
//   - gather: sub-results are merged in keyspace order — the
//     sub-intervals partition [start, end), so the k-way merge
//     degenerates to ordered concatenation — and the merge cuts off
//     exactly at Limit, marking still-unstarted sub-scans skipped;
//   - adaptive re-fetch: when an early range under-fills the global
//     limit and a sub-scan's page was cut short (pushed-down limit
//     filled, node raw-visit cap, or a concurrent split shrank the
//     serving range), the gather loop pages on from the node's resume
//     cursor with the remaining limit.
func (r *Router) ScanOpts(namespace string, start, end []byte, o ScanOptions) ([]record.Record, error) {
	if o.Limit <= 0 {
		return nil, errors.New("partition: scan requires a positive limit (scale independence)")
	}
	m, err := r.mapFor(namespace)
	if err != nil {
		return nil, err
	}
	if m.spansOne(start, end) {
		// Single-range fast path: no fan-out machinery.
		var b budget
		return r.gatherInterval(namespace, start, end, o, &b, nil)
	}
	ranges := m.Overlapping(start, end)

	subs := make([]*scanSub, len(ranges))
	for i, rng := range ranges {
		subs[i] = &scanSub{
			start: maxKey(start, rng.Start),
			end:   minKey(end, rng.End),
			done:  make(chan struct{}),
		}
	}
	// Push a proportional share of the limit into each sub-scan, with
	// half a share of slack so mild skew doesn't force a second round
	// trip; the gather loop's re-fetch covers the rest.
	perLimit := o.Limit/len(subs) + o.Limit/(2*len(subs)) + 1
	if perLimit > o.Limit {
		perLimit = o.Limit
	}

	par := o.parallelism
	if par == 0 {
		par = defaultScanParallelism
	}
	if par > len(subs) {
		par = len(subs)
	}

	// Workers claim sub-intervals in keyspace order, so the gather
	// loop's next-needed interval is always the earliest one in
	// flight; cutoff marks the rest skipped without paying for them.
	// The whole scan shares one retry budget.
	var shared struct {
		next   atomic.Int64
		cutoff atomic.Bool
		budget budget
	}
	next, cutoff, b := &shared.next, &shared.cutoff, &shared.budget
	for w := 0; w < par; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				sub := subs[i]
				if cutoff.Load() {
					// The gather loop has already returned (limit filled
					// or error) and will never read this sub — just don't
					// pay for the fetch.
					close(sub.done)
					continue
				}
				sub.page = r.scanInterval(namespace, sub.start, sub.end, perLimit, o, b)
				close(sub.done)
			}
		}()
	}

	out := make([]record.Record, 0, min(o.Limit, 1024))
	for _, sub := range subs {
		if len(out) >= o.Limit {
			cutoff.Store(true)
			break
		}
		<-sub.done
		if sub.page.err != nil {
			cutoff.Store(true)
			return nil, sub.page.err
		}
		out, err = r.gatherPages(namespace, sub, o, b, out)
		if err != nil {
			cutoff.Store(true)
			return nil, err
		}
	}
	cutoff.Store(true)
	return out, nil
}

// gatherPages drains one sub-interval into out: the prefetched first
// page, then adaptive re-fetches from the node's resume cursor while
// the global limit still has room.
func (r *Router) gatherPages(namespace string, sub *scanSub, o ScanOptions, b *budget, out []record.Record) ([]record.Record, error) {
	page := sub.page
	for {
		need := o.Limit - len(out)
		if need <= 0 {
			return out, nil
		}
		if len(page.recs) > need {
			page.recs = page.recs[:need]
		}
		out = append(out, page.recs...)
		if !page.more || len(out) >= o.Limit {
			return out, nil
		}
		page = r.scanInterval(namespace, page.resume, sub.end, o.Limit-len(out), o, b)
		if page.err != nil {
			return nil, page.err
		}
	}
}

// gatherInterval runs a whole interval through scanInterval pages
// sequentially (the single-range fast path).
func (r *Router) gatherInterval(namespace string, start, end []byte, o ScanOptions, b *budget, out []record.Record) ([]record.Record, error) {
	sub := &scanSub{start: start, end: end}
	sub.page = r.scanInterval(namespace, start, end, o.Limit, o, b)
	if sub.page.err != nil {
		return nil, sub.page.err
	}
	return r.gatherPages(namespace, sub, o, b, out)
}

// scanInterval fetches one page of [start, end) from whichever range
// currently serves its first key, under the shared request-execution
// contract (retry.go). When a concurrent split means the serving range
// covers only a prefix of the interval, the page reports a resume
// cursor at the range boundary so the caller continues into the
// successor range.
func (r *Router) scanInterval(namespace string, start, end []byte, limit int, o ScanOptions, b *budget) scanPage {
	if limit <= 0 {
		return scanPage{}
	}
	req := rpc.Request{
		Method: rpc.MethodScan, Namespace: namespace, Tenant: o.Tenant,
		Start: start, Limit: limit,
		Projection: o.Projection, Preds: o.Preds,
	}
	resp, rng, err := r.execute(namespace, start, o.Policy, b, func(rng Range, addr string) (rpc.Response, error) {
		req.End = minKey(end, rng.End)
		return r.transport.Call(addr, req)
	})
	if err != nil {
		return scanPage{err: err}
	}
	page := scanPage{recs: resp.Records, more: resp.More, resume: resp.Resume}
	if subEnd := minKey(end, rng.End); !page.more && !boundsEqual(subEnd, end) {
		// The serving range ended before the interval does (a split
		// landed between fan-out and now): continue from the boundary.
		page.more = true
		page.resume = subEnd
	}
	return page
}

func boundsEqual(a, b []byte) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return string(a) == string(b)
}
