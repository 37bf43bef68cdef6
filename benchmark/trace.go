package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/rpc"
)

// Tracing from outside the program: spans are recorded by the
// benchmark's own code at the three places it can stand without
// editing the system — around each Cluster call (root spans), in a
// shim around the TCP transport the coordinator is opened over (below
// its Batcher), and in a shim around each node's handler.

type spanKind uint8

const (
	spanRoot  spanKind = iota // scads.<op>
	spanCall                  // rpc.call.<method>
	spanServe                 // cluster.serve.<method>
)

// origin says whose work a transport call is. With one client the
// root spans are back to back, so a replication apply for op N runs
// inside op N+1's interval: containment in time cannot tell the two
// apart. The shim reads its own call stack instead.
type origin uint8

const (
	fromClient      origin = iota // the client's own request
	fromReplication               // the replication pump
	fromMaintenance               // asynchronous index upkeep
	fromRepair                    // the failure detector and repairs
	numOrigins
)

var originNames = [numOrigins]string{"", "replication", "maintenance", "repair"}

// methods the spans distinguish; anything else is "other".
var spanMethods = []string{
	rpc.MethodGet, rpc.MethodPut, rpc.MethodDelete, rpc.MethodScan,
	rpc.MethodApply, rpc.MethodBatch, rpc.MethodPing, "other",
}

func methodIndex(m string) uint8 {
	for i, name := range spanMethods {
		if name == m {
			return uint8(i)
		}
	}
	return uint8(len(spanMethods) - 1)
}

type span struct {
	id, parent, req uint32
	kind            spanKind
	name            uint8 // op kind of a root span, method index otherwise
	node            int8  // -1 for a root span
	from            origin
	start, end      int64 // ns from the tracer's epoch
}

func (s *span) dur() int64 { return s.end - s.start }

func (s *span) label() string {
	switch s.kind {
	case spanRoot:
		return "scads." + opKindNames[s.name]
	case spanCall:
		return "rpc.call." + spanMethods[s.name]
	default:
		return "cluster.serve." + spanMethods[s.name]
	}
}

// tracer holds the spans of a traced phase in memory allocated before
// the phase starts.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	spans []span
	n     atomic.Int64
	// root is the root span in progress; the traced phase has one
	// client, so there is at most one.
	root atomic.Uint32
	// calls counts transport calls whether or not tracing is on.
	calls   atomic.Int64
	writers atomic.Int64 // shims inside record

	nodeOf map[string]int8

	pcMu     sync.RWMutex
	pcOrigin map[uintptr]origin
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity), pcOrigin: make(map[uintptr]origin), nodeOf: make(map[string]int8)}
}

func (t *tracer) shims() shims {
	return shims{
		transport: func(next rpc.Transport) rpc.Transport { return &tracingTransport{next: next, t: t} },
		handler:   func(node int, h rpc.Handler) rpc.Handler { return &tracingHandler{next: h, t: t, node: int8(node)} },
	}
}

// start begins a traced phase; stop ends it.
func (t *tracer) start(s *stack) {
	for i, addr := range s.addrs {
		t.nodeOf[addr] = int8(i)
	}
	t.epoch = time.Now()
	t.n.Store(0)
	t.on.Store(true)
}

// stop ends the phase and waits for shims that are mid-record, so the
// spans can be read without synchronisation afterwards.
func (t *tracer) stop() {
	t.on.Store(false)
	for t.writers.Load() != 0 {
		runtime.Gosched()
	}
}

// record stores a finished span, unless the phase ended meanwhile.
func (t *tracer) record(s span) {
	t.writers.Add(1)
	if t.on.Load() {
		if sp := t.reserve(); sp != nil {
			s.id = sp.id
			*sp = s
		}
	}
	t.writers.Add(-1)
}

// reserve takes the next span slot; nil once the buffer is full.
func (t *tracer) reserve() *span {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return nil
	}
	sp := &t.spans[i]
	*sp = span{id: uint32(i + 1)}
	return sp
}

func (t *tracer) dropped() int64 { return max(0, t.n.Load()-int64(len(t.spans))) }

func (t *tracer) recorded() []span { return t.spans[:min(t.n.Load(), int64(len(t.spans)))] }

// beginRoot opens the root span of one client op.
func (t *tracer) beginRoot(k opKind) *span {
	if !t.on.Load() {
		return nil
	}
	sp := t.reserve()
	if sp == nil {
		return nil
	}
	sp.kind, sp.name, sp.node, sp.req = spanRoot, uint8(k), -1, sp.id
	t.root.Store(sp.id)
	return sp
}

func (t *tracer) endRoot(sp *span, start, end time.Time) {
	if sp == nil {
		return
	}
	t.root.Store(0)
	sp.start, sp.end = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
}

// callerOrigin classifies the transport shim's caller by the
// functions on its stack. Each program counter is resolved once.
func (t *tracer) callerOrigin() origin {
	var pcs [48]uintptr
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		t.pcMu.RLock()
		o, ok := t.pcOrigin[pc]
		t.pcMu.RUnlock()
		if !ok {
			o = originOfFunc(runtime.FuncForPC(pc - 1).Name())
			t.pcMu.Lock()
			t.pcOrigin[pc] = o
			t.pcMu.Unlock()
		}
		if o != fromClient {
			return o
		}
	}
	return fromClient
}

func originOfFunc(name string) origin {
	switch {
	case strings.Contains(name, "scads/internal/replication."):
		return fromReplication
	case strings.Contains(name, "scads/internal/repair."), strings.Contains(name, "scads/internal/migration."):
		return fromRepair
	case strings.Contains(name, "DrainMaintenance"), strings.Contains(name, "StartBackground"):
		return fromMaintenance
	}
	return fromClient
}

type tracingTransport struct {
	next rpc.Transport
	t    *tracer
}

func (tt *tracingTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	t := tt.t
	t.calls.Add(1)
	if !t.on.Load() {
		return tt.next.Call(addr, req)
	}
	from := t.callerOrigin()
	var parent uint32
	if from == fromClient {
		parent = t.root.Load()
	}
	start := time.Now()
	resp, err := tt.next.Call(addr, req)
	end := time.Now()
	t.record(span{
		kind: spanCall, name: methodIndex(req.Method), from: from, node: t.nodeOf[addr], parent: parent, req: parent,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	})
	return resp, err
}

type tracingHandler struct {
	next rpc.Handler
	t    *tracer
	node int8
}

func (h *tracingHandler) Serve(req rpc.Request) rpc.Response {
	t := h.t
	if !t.on.Load() {
		return h.next.Serve(req)
	}
	start := time.Now()
	resp := h.next.Serve(req)
	end := time.Now()
	t.record(span{
		kind: spanServe, name: methodIndex(req.Method), node: h.node,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	})
	return resp
}

// traceDigest is what the spans of one traced phase add up to.
type traceDigest struct {
	roots          int
	rootUs         float64 // mean root span
	scadsSelfUs    float64 // mean root span minus the time its calls cover
	callsPerOp     float64 // client-origin transport calls per root
	rpcSelfUs      float64 // mean call span minus its serve span
	rpcSelfPerOp   float64
	servePerOp     float64    // client-origin serve time per root
	serveUs        [3]float64 // mean serve span: get, put (put, delete, apply), scan
	bgBusyUsPerOp  float64
	bgByOrigin     [numOrigins]float64 // busy us per root, by origin
	selfSumRatio   float64             // (scads self + rpc self + serve) / root
	unmatchedServe int
}

// digest links the spans and computes self times. Serve spans carry no
// identifier the client side knows, so a serve span's parent is the
// tightest call span to the same node with the same method that
// contains it in time.
func (t *tracer) digest() traceDigest {
	spans := t.recorded()
	type key struct {
		node int8
		name uint8
	}
	calls := make(map[key][]*span)
	var roots []*span
	for i := range spans {
		sp := &spans[i]
		if sp.end == 0 {
			continue // a root still open when tracing stopped
		}
		switch sp.kind {
		case spanRoot:
			roots = append(roots, sp)
		case spanCall:
			calls[key{sp.node, sp.name}] = append(calls[key{sp.node, sp.name}], sp)
		}
	}
	for _, list := range calls {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
	}
	var d traceDigest
	serveOf := make(map[uint32]*span) // call id -> its serve span
	var serveSum [3]float64
	var serveN [3]int
	for i := range spans {
		sp := &spans[i]
		if sp.kind != spanServe {
			continue
		}
		if c := serveClass(sp.name); c >= 0 {
			serveSum[c] += usOf(sp.dur())
			serveN[c]++
		}
		list := calls[key{sp.node, sp.name}]
		j := sort.Search(len(list), func(j int) bool { return list[j].start > sp.start }) - 1
		for ; j >= 0 && sp.start-list[j].start < int64(time.Second); j-- {
			if list[j].end >= sp.end && serveOf[list[j].id] == nil {
				sp.parent, sp.req, sp.from = list[j].id, list[j].req, list[j].from
				serveOf[list[j].id] = sp
				break
			}
		}
		if sp.parent == 0 {
			d.unmatchedServe++
		}
	}
	for c := range serveSum {
		d.serveUs[c] = ratio(serveSum[c], float64(serveN[c]))
	}

	children := make(map[uint32][]*span)
	var rpcSelf, rpcSelfClient, serveClient, bg float64
	var matched, clientCalls int
	for _, list := range calls {
		for _, c := range list {
			self := float64(c.dur())
			if sv := serveOf[c.id]; sv != nil {
				self -= float64(sv.dur())
				rpcSelf += self
				matched++
			}
			if c.from != fromClient || c.parent == 0 {
				bg += float64(c.dur())
				d.bgByOrigin[c.from] += float64(c.dur())
				continue
			}
			clientCalls++
			children[c.parent] = append(children[c.parent], c)
			rpcSelfClient += self
			if sv := serveOf[c.id]; sv != nil {
				serveClient += float64(sv.dur())
			}
		}
	}
	var rootSum, selfSum float64
	for _, r := range roots {
		rootSum += float64(r.dur())
		selfSum += float64(r.dur() - covered(r, children[r.id]))
	}
	n := float64(len(roots))
	d.roots = len(roots)
	d.rootUs = ratio(rootSum, n) / 1e3
	d.scadsSelfUs = ratio(selfSum, n) / 1e3
	d.callsPerOp = ratio(float64(clientCalls), n)
	d.rpcSelfUs = ratio(rpcSelf, float64(matched)) / 1e3
	d.rpcSelfPerOp = ratio(rpcSelfClient, n) / 1e3
	d.servePerOp = ratio(serveClient, n) / 1e3
	d.bgBusyUsPerOp = ratio(bg, n) / 1e3
	for o := range d.bgByOrigin {
		d.bgByOrigin[o] = ratio(d.bgByOrigin[o], n) / 1e3
	}
	d.selfSumRatio = ratio(d.scadsSelfUs+d.rpcSelfPerOp+d.servePerOp, d.rootUs)
	return d
}

// serveClass maps a method to get/put/scan, or -1.
func serveClass(name uint8) int {
	switch spanMethods[name] {
	case rpc.MethodGet:
		return 0
	case rpc.MethodPut, rpc.MethodDelete, rpc.MethodApply:
		return 1
	case rpc.MethodScan:
		return 2
	}
	return -1
}

// covered is the length of the part of root that its children cover:
// the union of their intervals, clipped to the root.
func covered(root *span, kids []*span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	at := root.start
	for _, k := range kids {
		lo, hi := max(k.start, at), min(k.end, root.end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// writeSpans writes the recorded spans as a JSON array, one span per
// line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	spans := t.recorded()
	for i := range spans {
		sp := &spans[i]
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"node":%d,"origin":%q,"start_ns":%d,"end_ns":%d}%s`+"\n",
			sp.id, sp.parent, sp.req, sp.label(), sp.node, originNames[sp.from], sp.start, sp.end, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
