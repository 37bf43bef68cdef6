// Package cluster provides the storage-node service (the rpc.Handler a
// SCADS data node exposes) and the cluster membership directory with
// heartbeat-based failure detection.
package cluster

import (
	"sync/atomic"

	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// Node is one SCADS storage node: a storage engine plus the request
// dispatch that makes it reachable over any rpc.Transport.
type Node struct {
	id     string
	engine *storage.Engine

	// fences rejects writes into ranges mid-handoff (see fenceSet).
	fences fenceSet

	// swaps remembers what recent swaps displaced (see swapMemory).
	swaps *swapMemory

	// Request counters for capacity modelling.
	reads  atomic.Int64
	writes atomic.Int64
}

// NewNode wraps engine as a servable storage node.
func NewNode(id string, engine *storage.Engine) *Node {
	return &Node{id: id, engine: engine, swaps: newSwapMemory()}
}

// Engine exposes the underlying storage engine (used by local tooling
// and tests; remote callers go through Serve).
func (n *Node) Engine() *storage.Engine { return n.engine }

// ReadCount and WriteCount report requests served since start.
func (n *Node) ReadCount() int64  { return n.reads.Load() }
func (n *Node) WriteCount() int64 { return n.writes.Load() }

// Serve implements rpc.Handler.
func (n *Node) Serve(req rpc.Request) rpc.Response {
	switch req.Method {
	case rpc.MethodPing:
		return rpc.Response{Found: true, Value: []byte(n.id)}
	case rpc.MethodGet:
		return n.get(req)
	case rpc.MethodPut:
		return n.put(req)
	case rpc.MethodDelete:
		return n.del(req)
	case rpc.MethodScan:
		return n.scan(req)
	case rpc.MethodApply:
		return n.apply(req)
	case rpc.MethodSwap:
		return n.swap(req)
	case rpc.MethodDropRange:
		return n.dropRange(req)
	case rpc.MethodRangeSnapshot:
		return n.rangeSnapshot(req)
	case rpc.MethodRangeDelta:
		return n.rangeDelta(req)
	case rpc.MethodRangeFence:
		return n.rangeFence(req)
	case rpc.MethodStats:
		return n.stats(req)
	case rpc.MethodBatch:
		return n.getMany(req)
	default:
		return rpc.Unimplemented(req)
	}
}

func (n *Node) namespace(name string) (*storage.Namespace, rpc.Response, bool) {
	ns, err := n.engine.Namespace(name)
	if err != nil {
		return nil, rpc.Response{Err: rpc.ErrString(err)}, false
	}
	return ns, rpc.Response{}, true
}

func (n *Node) get(req rpc.Request) rpc.Response {
	n.reads.Add(1)
	ns, errResp, ok := n.namespace(req.Namespace)
	if !ok {
		return errResp
	}
	rec, found, err := ns.GetRecord(req.Key)
	if err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	if !found || rec.Tombstone {
		// A deleted row answers its tombstone's version, so a
		// read-modify-write bounds its swap above the delete.
		return rpc.Response{Found: false, Version: rec.Version}
	}
	return rpc.Response{Found: true, Value: rec.Value, Version: rec.Version}
}

// getMany serves a multi-get: each key of req.Records is answered in
// order with what get would return, a key with no live row as a
// tombstone at its tombstone's version (0 if it was never written).
// Any error fails the whole request; the router then reads key by key.
func (n *Node) getMany(req rpc.Request) rpc.Response {
	n.reads.Add(int64(len(req.Records)))
	ns, errResp, ok := n.namespace(req.Namespace)
	if !ok {
		return errResp
	}
	out := make([]record.Record, len(req.Records))
	for i, key := range req.Records {
		rec, found, err := ns.GetRecord(key.Key)
		if err != nil {
			return rpc.Response{Err: rpc.ErrString(err)}
		}
		out[i].Version = rec.Version
		if !found || rec.Tombstone {
			out[i].Tombstone = true
		} else {
			out[i].Value = rec.Value
		}
	}
	return rpc.Response{Found: true, Records: out}
}

func (n *Node) put(req rpc.Request) rpc.Response {
	n.writes.Add(1)
	return n.writeUnfenced(req.Namespace, []record.Record{{Key: req.Key}}, func(ns *storage.Namespace) rpc.Response {
		return versioned(ns.Put(req.Key, req.Value))
	})
}

func (n *Node) del(req rpc.Request) rpc.Response {
	n.writes.Add(1)
	return n.writeUnfenced(req.Namespace, []record.Record{{Key: req.Key}}, func(ns *storage.Namespace) rpc.Response {
		return versioned(ns.Delete(req.Key))
	})
}

// writeUnfenced runs write on the namespace named nsName unless a fence
// of it contains one of recs' keys, in which case the write bounces.
// The fences hold still while write runs (see whileKeysClear).
func (n *Node) writeUnfenced(nsName string, recs []record.Record, write func(*storage.Namespace) rpc.Response) rpc.Response {
	var resp rpc.Response
	if !n.fences.whileKeysClear(nsName, recs, func() {
		ns, errResp, ok := n.namespace(nsName)
		if !ok {
			resp = errResp
			return
		}
		resp = write(ns)
	}) {
		return rpc.Response{Err: rpc.ErrString(rpc.ErrFenced)}
	}
	return resp
}

func versioned(ver uint64, err error) rpc.Response {
	if err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	return rpc.Response{Found: true, Version: ver}
}

// pageRecordCap bounds how many stored records one range read may visit,
// whatever it asks for and however selective its pushed-down filters
// are: scale independence means a node never serves an unbounded read.
const pageRecordCap = 10000

// pageByteBudget bounds the encoded payload of one page. A record count
// alone lets large values assemble a response past the wire's frame cap
// (which would surface as a semantic too-big error, not data); stopping
// at a byte budget turns big-value ranges into more, smaller pages
// through the same More continuation.
const pageByteBudget = 4 << 20

// page is one bounded range read; scan, snapshot and delta requests all
// fill one. It takes at most limit records, visits at most
// pageRecordCap and stops once the records it holds reach
// pageByteBudget. The budget is checked between records, so one record
// larger than it still travels alone and every page makes progress.
// The first record that does not fit proves data remains, so More is
// exact: it is set only when a continuation will find something, and
// that record's key is the resume point.
type page struct {
	pageBuf
	cols    row.Columns // the row a filter or projection reads
	elem    []byte      // the key element a filter compares
	recs    []record.Record
	limit   int
	visited int
	bytes   int
	more    bool
	resume  []byte
}

func newPage(limit int) *page {
	if limit <= 0 || limit > pageRecordCap {
		limit = pageRecordCap
	}
	return &page{pageBuf: pageBuf{first: min(limit, 16)}, limit: limit}
}

// full reports whether r lies beyond the page, keeping its key as the
// resume point if it does; otherwise r counts as visited.
func (p *page) full(r record.Record) bool {
	if len(p.recs) >= p.limit || p.visited >= pageRecordCap || p.bytes >= pageByteBudget {
		p.more, p.resume = true, append([]byte(nil), r.Key...)
		return true
	}
	p.visited++
	return false
}

// add appends r, whose bytes are already in the page.
func (p *page) add(r record.Record) {
	if p.recs == nil {
		p.recs = make([]record.Record, 0, p.first)
	}
	p.recs = append(p.recs, r)
	p.bytes += r.MarshaledSize()
}

// take is the visitor of a read that returns every record it visits.
func (p *page) take(r record.Record) bool {
	if p.full(r) {
		return false
	}
	p.add(p.record(r))
	return true
}

func (n *Node) scan(req rpc.Request) rpc.Response {
	n.reads.Add(1)
	ns, errResp, ok := n.namespace(req.Namespace)
	if !ok {
		return errResp
	}
	var (
		p        = newPage(req.Limit)
		xformErr error
		err      error
	)
	read := func() {
		err = ns.ScanLive(req.Start, req.End, func(r record.Record) bool {
			if p.full(r) {
				return false
			}
			out, match, err := p.transform(r, req.Projection, req.Preds)
			if err != nil {
				xformErr = err
				return false
			}
			if match {
				p.add(out)
			}
			return true
		})
	}
	if !n.fences.whileClear(req.Namespace, req.Start, req.End, read) {
		// The span is mid-migration handoff — or this node already lost
		// it and teardown may have begun truncating. Serving the scan
		// could silently return a partial range; bounce instead so the
		// coordinator re-reads the partition map and retries against
		// the current holder.
		return rpc.Response{Err: rpc.ErrString(rpc.ErrFenced)}
	}
	if err == nil {
		err = xformErr
	}
	if err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	return rpc.Response{Found: true, Records: p.recs, More: p.more, Resume: p.resume}
}

// pageBuf holds the bytes of one page: every record the page returns is
// copied into it, so the page aliases no engine memory and costs a few
// allocations instead of two per record. It is only ever appended to,
// or replaced by a fresh array when full, so bytes a record already
// points at are never written again.
type pageBuf struct {
	buf   []byte
	first int // records the first array is sized for
}

// reserve makes room for n more bytes in the current array. No array is
// sized past the page's byte budget unless one record needs it.
func (p *pageBuf) reserve(n int) {
	if cap(p.buf)-len(p.buf) >= n {
		return
	}
	size := 2 * cap(p.buf)
	if size == 0 {
		size = n * p.first
	}
	p.buf = make([]byte, 0, max(min(size, pageByteBudget), n))
}

// copy appends b to the page and returns the copy, capped so that an
// append to it cannot write into the page.
func (p *pageBuf) copy(b []byte) []byte {
	if b == nil {
		return nil
	}
	start := len(p.buf)
	p.buf = append(p.buf, b...)
	return p.buf[start:len(p.buf):len(p.buf)]
}

// record returns r with its key and value copied into the page.
func (p *pageBuf) record(r record.Record) record.Record {
	p.reserve(len(r.Key) + len(r.Value))
	return record.Record{Key: p.copy(r.Key), Value: p.copy(r.Value), Version: r.Version, Tombstone: r.Tombstone}
}

// transform applies the pushed-down filter conjuncts and projection to
// one live record, copying what it returns into the page. Filters
// compare keycodec encodings (byte order equals value order); a row
// lacking a filtered column never matches. The row is read in place:
// a filter encodes only the column it tests, into the page's scratch
// buffer, and a projection copies the columns it keeps, so the
// returned record carries the narrowed row under the original version;
// without one the stored value passes through untouched.
func (p *page) transform(r record.Record, projection []string, preds []rpc.ScanPred) (record.Record, bool, error) {
	if len(projection) == 0 && len(preds) == 0 {
		return p.record(r), true, nil
	}
	if err := p.cols.Reset(r.Value); err != nil {
		return record.Record{}, false, err
	}
	for _, pred := range preds {
		v, ok := p.cols.Value(pred.Column)
		if !ok {
			return record.Record{}, false, nil
		}
		p.elem = row.AppendKeyElem(p.elem[:0], v, false)
		if !pred.Match(p.elem) {
			return record.Record{}, false, nil
		}
	}
	if len(projection) == 0 {
		return p.record(r), true, nil
	}
	// A narrowed row encodes to no more bytes than the stored one.
	p.reserve(len(r.Key) + len(r.Value))
	key := p.copy(r.Key)
	start := len(p.buf)
	p.buf = p.cols.AppendProject(p.buf, projection)
	return record.Record{Key: key, Value: p.buf[start:len(p.buf):len(p.buf)], Version: r.Version}, true, nil
}

func (n *Node) apply(req rpc.Request) rpc.Response {
	n.writes.Add(1)
	return n.writeUnfenced(req.Namespace, req.Records, func(ns *storage.Namespace) rpc.Response {
		// The whole record group goes down the batched path: one lock
		// acquisition and one WAL write (one shared fsync when the
		// engine runs with synchronous writes).
		if err := ns.ApplyBatch(req.Records); err != nil {
			return rpc.Response{Err: rpc.ErrString(err)}
		}
		return rpc.Response{Found: true}
	})
}

// swap applies pre-versioned records at their keys' primary and
// answers, in Response.Records, the record each displaced: the old row
// a write with dependents needs, inside the apply's round trip (see
// swapMemory.swap).
func (n *Node) swap(req rpc.Request) rpc.Response {
	n.writes.Add(1)
	return n.writeUnfenced(req.Namespace, req.Records, func(ns *storage.Namespace) rpc.Response {
		return n.swaps.swap(ns, req.Namespace, req.Records, req.Since, n.engine.Clock().Now())
	})
}

// dropRange physically truncates [Start, End) — one memtable range
// unlink, per-SSTable exclusions resolved by one compaction, one WAL
// reset. The old implementation tombstoned key by key (one WAL append
// and, under SyncWrites, one fsync each), stalling the donor node
// after every migration; worse, the fresh-versioned teardown
// tombstones would shadow legitimately re-installed records if the
// range ever migrated back. RecordCount reports memtable unlinks.
func (n *Node) dropRange(req rpc.Request) rpc.Response {
	ns, errResp, ok := n.namespace(req.Namespace)
	if !ok {
		return errResp
	}
	removed, err := ns.TruncateRange(req.Start, req.End)
	if err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	return rpc.Response{Found: true, RecordCount: int64(removed)}
}

// rangeSnapshot serves one page of a range's records — tombstones
// included, so a deleted key can never resurrect on the recipient —
// together with the apply watermark captured *before* the scan. The
// migration manager keeps the first page's watermark as its delta
// baseline: anything modified after it is re-fetched by
// MethodRangeDelta, so later pages racing with writes are safe
// (last-write-wins applies dedupe re-sent records). Limit < 0 returns
// the watermark alone plus the namespace's highest accepted record
// version (the freshness probe the repair manager ranks failover
// candidates by).
func (n *Node) rangeSnapshot(req rpc.Request) rpc.Response {
	n.reads.Add(1)
	ns, errResp, ok := n.namespace(req.Namespace)
	if !ok {
		return errResp
	}
	epoch, wm := ns.ApplyWatermark()
	resp := rpc.Response{Found: true, Epoch: epoch, Watermark: wm, Version: ns.MaxVersion()}
	if req.Limit < 0 {
		return resp
	}
	p := newPage(req.Limit)
	if err := ns.ScanAll(req.Start, req.End, p.take); err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	resp.Records, resp.More, resp.Resume = p.recs, p.more, p.resume
	return resp
}

// rangeDelta serves one page of the records modified after the caller's
// watermark, with the watermark covering them: a More page continues
// from that watermark. A baseline the node cannot serve (restart, or
// older than the retained delta log) returns ErrSnapshotGap and the
// caller restarts from a full snapshot.
func (n *Node) rangeDelta(req rpc.Request) rpc.Response {
	n.reads.Add(1)
	ns, errResp, ok := n.namespace(req.Namespace)
	if !ok {
		return errResp
	}
	p := newPage(req.Limit)
	wm, ok, err := ns.ScanSince(req.Epoch, req.Since, req.Start, req.End, p.take)
	if err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	if !ok {
		return rpc.Response{Err: rpc.ErrString(rpc.ErrSnapshotGap)}
	}
	return rpc.Response{Found: true, Records: p.recs, Epoch: req.Epoch, Watermark: wm, More: p.more}
}

// rangeFence installs (req.Fence) or lifts a write fence over
// [Start, End). Both directions are idempotent. An install that asks
// for a page (Limit > 0) answers it as rangeDelta does, from the
// baseline (Epoch, Since): the fence goes up only once the writes in
// flight have landed, so that delta is the range's last.
func (n *Node) rangeFence(req rpc.Request) rpc.Response {
	if req.Namespace == "" {
		return rpc.Response{Err: "cluster: rangefence needs a namespace"}
	}
	if !req.Fence {
		n.fences.remove(req.Namespace, req.Start, req.End)
		return rpc.Response{Found: true}
	}
	n.fences.add(req.Namespace, req.Start, req.End)
	if req.Limit > 0 {
		return n.rangeDelta(req)
	}
	return rpc.Response{Found: true}
}

func (n *Node) stats(req rpc.Request) rpc.Response {
	s := n.engine.Stats()
	return rpc.Response{
		Found:       true,
		RecordCount: s.RecordCount,
		Fenced:      n.fences.count(),
	}
}
