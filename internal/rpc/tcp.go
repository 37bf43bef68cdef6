package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxConnHandlers bounds the requests a server connection has in its
// handlers at once; point reads are served on the read loop and take no
// slot. Data-plane requests past the bound are shed with an
// ErrOverloaded response carrying a retry-after hint — explicit
// backpressure the caller's retry budget understands — instead of
// blocking the read loop, which would silently queue every method
// (including failure-detection pings) behind bulk work via TCP.
const maxConnHandlers = 256

// controlHandlerReserve is the slice of maxConnHandlers held back for
// control-plane methods (MethodPing, MethodStats, MethodRepairs …):
// however saturated the data plane is, a heartbeat probe always finds
// a free handler, so the repair detector cannot false-positive a node
// that is merely busy.
const controlHandlerReserve = 8

// shedRetryAfter is the retry-after hint attached to handler-bound
// sheds. One hint fits all: the bound clears as fast as the slowest
// in-flight handler, which is ~ms for everything but bulk scans.
const shedRetryAfter = 5 * time.Millisecond

// serverWriteTimeout bounds how long a connection's response writes
// may make no progress. It exists for the half-open case — a client
// host that vanished without FIN/RST would otherwise block a handler
// goroutine in conn.Write forever once the kernel send buffer fills,
// and park the rest behind serverQueueLimit, pinning up to
// maxConnHandlers goroutines (plus the read loop) per dead connection
// until Server.Close. It is deliberately generous: a live-but-slow
// client hitting it merely loses the connection and redials.
const serverWriteTimeout = 2 * time.Minute

// serverQueueLimit is how many response bytes may wait behind a write
// in flight before further handlers park until it completes, so a peer
// that pipelines requests without reading responses is backpressured
// through the handler bound and TCP instead of growing the queue.
const serverQueueLimit = 4 << 20

// maxIdleWorkers caps the workers a connection keeps waiting for work
// once a burst has passed; a worker that would be idle beside this many
// others exits.
const maxIdleWorkers = 8

// inlineFlushBytes caps the point-read responses a connection's read
// loop holds before it writes them, however many more frames are
// buffered behind them.
const inlineFlushBytes = 64 << 10

// Server serves a Handler over TCP. A point read (see isPointRead) is
// served on the connection's read loop: a memtable or cache lookup
// costs less than the goroutine a hand-off would spawn. Its response
// joins the ones before it in a per-connection buffer, which goes to
// the socket in one write once the read buffer holds no complete next
// frame (or past inlineFlushBytes), so a pipelined burst of gets is
// answered with one write(2) and no response waits on a read that could
// block. Every other frame is handed to one of the connection's
// standing workers — an idle one, or one started for it — so one slow
// scan never head-of-line-blocks the calls behind it, and a worker's
// stack, grown once, serves request after request; the worker hands its
// response frame to the connection's framedConn as it completes —
// writing it itself when the socket is free, combining it into the next
// write otherwise. Responses leave in completion order; the correlation
// ID ties each one back to its request. The cost of inline service: a get waiting on its
// namespace's lock delays the frames behind it on that connection.
type Server struct {
	handler Handler
	// Each connection's writer takes these; only tests change them.
	writeTimeout time.Duration
	queueLimit   int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	// wg tracks the accept loop and every serveConn; each serveConn
	// joins its own workers before exiting, so Close returns only after
	// all in-flight handlers have finished.
	wg sync.WaitGroup
	// workers counts the live worker goroutines of every connection.
	workers atomic.Int64
}

// NewServer returns a Server dispatching to handler.
func NewServer(handler Handler) *Server {
	return &Server{
		handler: handler,
		// The total stall allowance is four writeTimeouts (see framedConn).
		writeTimeout: serverWriteTimeout / 4,
		queueLimit:   serverQueueLimit,
		conns:        make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting connections on addr ("host:port"; use
// ":0" for an ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("rpc: server closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// A failed or wedged write closes the socket, which unblocks the
	// read loop; remaining handlers drain against the dead connection.
	fc := newFramedConn(conn, s.writeTimeout, func(error) { conn.Close() })
	fc.queueLimit = s.queueLimit
	w := &workers{s: s, fc: fc, work: make(chan job)}
	defer func() {
		// Join the workers before releasing the connection so
		// Server.Close never races handler completion: when wg.Wait
		// returns, no worker goroutine is left running.
		close(w.work)
		w.wg.Wait()
		conn.Close()
		fc.finisher.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Two pools: data-plane handlers take from dataSem and are shed
	// (never queued) when it is empty; control-plane probes take from
	// ctrlSem, a reserve the data plane cannot consume. The blocking
	// acquire on ctrlSem is safe — only cheap probes hold it.
	dataSem := make(chan struct{}, maxConnHandlers-controlHandlerReserve)
	ctrlSem := make(chan struct{}, controlHandlerReserve)
	// A connection carries a handful of namespaces and tenants; their
	// strings are made once, not per request.
	names := new(internTable)
	// inline holds the frames of point reads served on this loop until
	// the loop might block: in the next read, or on the control reserve.
	var inline []byte
	flushInline := func() {
		fc.send(inline, time.Now())
		inline = inline[:0]
		if cap(inline) > maxPooledFrame {
			inline = nil // the rule putFrameBuf applies to encode buffers
		}
	}
	for {
		if len(inline) > 0 && (len(inline) >= inlineFlushBytes || !fc.frameBuffered()) {
			flushInline()
		}
		// The payload is borrowed from the read buffer, and so are the
		// decoded request's byte fields: a point read is served and its
		// response copied into inline before the next read; any other
		// request is detached before it leaves the loop.
		payload, err := fc.readBorrowed()
		if err != nil {
			return // EOF or broken peer
		}
		var req Request
		lent, err := receiveRequest(payload, names, &req)
		if err != nil {
			// A desynchronised or hostile byte stream cannot be
			// recovered; drop the connection.
			return
		}
		if lent {
			resp := serve(s.handler, &req)
			inline = appendResponseFrame(inline, &resp, maxFrameSize)
			continue
		}
		sem := dataSem
		if IsControlMethod(req.Method) {
			sem = ctrlSem
			if len(inline) > 0 {
				flushInline()
			}
			sem <- struct{}{}
		} else {
			select {
			case sem <- struct{}{}:
			default:
				// Handler bound saturated: shed instead of blocking
				// the read loop, so control frames behind this one
				// still reach their reserved headroom promptly.
				shed := Response{ID: req.ID, Err: ErrString(Overloaded(shedRetryAfter, "server handler bound saturated"))}
				writeResponse(fc, &shed)
				continue
			}
		}
		w.dispatch(job{req: req, slot: sem})
	}
}

// writeResponse encodes resp and hands its frame to fc.
func writeResponse(fc *framedConn, resp *Response) {
	bp := encodeResponseFrame(resp)
	fc.send(*bp, time.Now())
	putFrameBuf(bp)
}

// job is one detached request and the handler slot it holds.
type job struct {
	req  Request
	slot chan struct{}
}

// workers are a connection's standing handler goroutines. The read loop
// hands each job over work, which is unbuffered, so a job goes only to
// a worker already waiting; when none is, dispatch starts one.
type workers struct {
	s    *Server
	fc   *framedConn
	work chan job // closed by the read loop when the connection ends
	idle atomic.Int32
	wg   sync.WaitGroup
}

// dispatch hands j to an idle worker, or starts a worker with it.
func (w *workers) dispatch(j job) {
	select {
	case w.work <- j:
	default:
		w.wg.Add(1)
		w.s.workers.Add(1)
		go w.run(j)
	}
}

// run serves j, then each job handed over work, until the connection
// ends or maxIdleWorkers other workers are idle already.
func (w *workers) run(j job) {
	defer func() {
		w.s.workers.Add(-1)
		w.wg.Done()
	}()
	for {
		resp := serve(w.s.handler, &j.req)
		writeResponse(w.fc, &resp)
		<-j.slot
		if w.idle.Add(1) > maxIdleWorkers {
			w.idle.Add(-1)
			return
		}
		j = job{} // an idle worker keeps nothing of the request it served
		var ok bool
		if j, ok = <-w.work; !ok {
			return
		}
		w.idle.Add(-1)
	}
}

// Close stops the listener, closes all connections, and waits for
// every in-flight handler to return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// errBrokenConn classifies a call failure as connection-level — the
// multiplexed connection died under the call (send failure, peer
// reset, EOF mid-stream) as opposed to a per-call timeout on a live
// connection. Connection-level failures on a previously healthy
// pooled connection trigger one transparent redial before the peer is
// classified unreachable: a node that merely restarted between calls
// must not surface as a spurious ErrUnreachable and burn the caller's
// down-retry budget.
var errBrokenConn = errors.New("rpc: connection broken")

// TCPTransport is a Transport over real sockets: one multiplexed
// connection per address, with pipelined calls correlated by
// transport-internal IDs. The calling goroutine writes its own frame
// (or leaves it to the write already in progress: see framedConn) and
// a single reader goroutine dispatches response frames to the waiting
// callers, so any number of calls can be in flight on one connection
// at once and responses may return in any order. Per-call deadlines
// are enforced by a per-connection sweeper; a broken connection fails
// every in-flight call with ErrUnreachable and the next call redials.
type TCPTransport struct {
	// Timeout bounds each call (dial + send + server processing +
	// receive). Default 5s.
	Timeout time.Duration

	mu     sync.Mutex
	conns  map[string]*muxConn
	closed bool
}

// NewTCPTransport returns a ready transport.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{Timeout: 5 * time.Second, conns: make(map[string]*muxConn)}
}

// callResult is what a waiting caller receives: the matched response
// or the call's terminal error.
type callResult struct {
	resp Response
	err  error
}

// resultChanPool recycles the buffered channels calls wait on. A
// channel is returned to the pool only after its exactly-one result
// has been received, so a pooled channel is always empty.
var resultChanPool = sync.Pool{
	New: func() any { return make(chan callResult, 1) },
}

// pendingCall is one in-flight call: where to deliver its result and
// when it expires.
type pendingCall struct {
	ch       chan callResult
	deadline time.Time
}

// muxConn is one multiplexed connection: correlation state, the framed
// connection callers write their frames through, the reader goroutine
// matching response frames to pending calls, and a deadline sweeper
// enforcing per-call timeouts (one ticker per connection instead of one
// timer per call keeps the per-call allocation count down).
//
// Delivery invariant: every registered pendingCall receives exactly
// one callResult, sent by whichever of the reader (response arrived),
// the sweeper (deadline passed), or fail (connection died — a write
// error included) removes it from the pending map under pmu. Callers
// therefore block on a single receive, and the channel is safely
// poolable afterwards.
type muxConn struct {
	t    *TCPTransport
	addr string
	fc   *framedConn

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]pendingCall
	broken  bool
	err     error // terminal error; set under pmu before closed is closed

	closed chan struct{}
}

func (t *TCPTransport) timeout() time.Duration {
	if t.Timeout > 0 {
		return t.Timeout
	}
	return 5 * time.Second
}

// Call implements Transport. The request's ID field is ignored and
// never mutated: correlation IDs are transport-internal, assigned per
// attempt on the connection that carries it.
func (t *TCPTransport) Call(addr string, req Request) (Response, error) {
	c, fresh, err := t.getConn(addr)
	if err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	resp, err := c.do(&req, t.timeout())
	if err == nil || fresh || !errors.Is(err, errBrokenConn) {
		return resp, err
	}
	// The pooled connection was stale (typical cause: the node
	// restarted since the last call, silently invalidating the
	// socket). Redial once and retry transparently — safe because a
	// request that died with its connection was either never processed
	// or is idempotent under last-write-wins versions — before letting
	// the failure classify the peer as unreachable.
	c2, err2 := t.dial(addr)
	if err2 != nil {
		return Response{}, fmt.Errorf("%w: redial: %v", ErrUnreachable, err2)
	}
	return c2.do(&req, t.timeout())
}

// getConn returns the live multiplexed connection for addr, dialing
// one if needed. fresh reports that this call dialed it (a failure on
// a fresh connection is a genuinely unreachable peer, not a stale
// socket).
func (t *TCPTransport) getConn(addr string) (c *muxConn, fresh bool, err error) {
	t.mu.Lock()
	if c := t.conns[addr]; c != nil && !c.isBroken() {
		t.mu.Unlock()
		return c, false, nil
	}
	t.mu.Unlock()
	c, err = t.dial(addr)
	return c, true, err
}

func (t *TCPTransport) dial(addr string) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, t.timeout())
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return t.adopt(addr, conn)
}

// adopt pools an established connection to addr and starts its reader
// and sweeper. A caller's own write is cut short at the call timeout;
// a write stalled four times that long is a wedged socket and fails
// the connection. The allowance is deliberately a multiple of the call
// timeout: a peer that is slow to drain its socket is not dead, and
// tearing the shared multiplexed connection down would spuriously fail
// every in-flight call on it.
func (t *TCPTransport) adopt(addr string, conn net.Conn) (*muxConn, error) {
	c := &muxConn{
		t:       t,
		addr:    addr,
		pending: make(map[uint64]pendingCall),
		closed:  make(chan struct{}),
	}
	c.fc = newFramedConn(conn, t.timeout(), func(err error) { c.fail(fmt.Errorf("send: %v", err)) })
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, errors.New("rpc: transport closed")
	}
	if existing := t.conns[addr]; existing != nil && !existing.isBroken() {
		// Lost a dial race; use the winner.
		t.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	t.conns[addr] = c
	t.mu.Unlock()
	go c.readLoop()
	go c.sweepLoop(sweepInterval(t.timeout()))
	return c, nil
}

// sweepInterval picks the deadline-sweep period for a call timeout:
// fine enough that short timeouts stay meaningful, coarse enough to
// cost nothing.
func sweepInterval(timeout time.Duration) time.Duration {
	iv := timeout / 8
	if iv < 10*time.Millisecond {
		return 10 * time.Millisecond
	}
	if iv > 250*time.Millisecond {
		return 250 * time.Millisecond
	}
	return iv
}

// do runs one call on this connection: encode the frame under a fresh
// correlation ID, register the call, send the frame, await the single
// result the delivery invariant guarantees. The sweeper bounds the
// wait: if the response never arrives, or the frame never leaves
// because the peer stopped reading, the call's deadline expires and
// the sweeper delivers the timeout.
func (c *muxConn) do(req *Request, timeout time.Duration) (Response, error) {
	wireReq := *req
	wireReq.ID = c.nextID.Add(1)
	bp, err := encodeRequestFrame(&wireReq)
	if err != nil {
		return Response{}, err // semantic failure: payload too big for the wire
	}
	now := time.Now()
	ch := resultChanPool.Get().(chan callResult)
	c.pmu.Lock()
	if c.broken {
		err := c.err
		c.pmu.Unlock()
		resultChanPool.Put(ch)
		putFrameBuf(bp)
		return Response{}, err
	}
	c.pending[wireReq.ID] = pendingCall{ch: ch, deadline: now.Add(timeout)}
	c.pmu.Unlock()

	c.fc.send(*bp, now)
	putFrameBuf(bp)
	res := <-ch
	resultChanPool.Put(ch)
	return res.resp, res.err
}

func (c *muxConn) isBroken() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken
}

// fail tears the connection down once: records the terminal error,
// delivers it to every in-flight call, closes the socket, and removes
// the connection from the transport's pool so the next call redials.
func (c *muxConn) fail(cause error) {
	c.pmu.Lock()
	if c.broken {
		c.pmu.Unlock()
		return
	}
	c.broken = true
	c.err = fmt.Errorf("%w: %w: %v", ErrUnreachable, errBrokenConn, cause)
	err := c.err
	pend := c.pending
	c.pending = nil
	c.pmu.Unlock()
	for _, pc := range pend {
		pc.ch <- callResult{err: err}
	}
	close(c.closed)
	c.fc.conn.Close()
	c.t.remove(c.addr, c)
}

// sweepLoop enforces per-call deadlines: expired calls are removed
// from the pending map and handed their timeout. A timed-out call on
// a live connection is abandoned — if its response arrives later the
// reader drops it — but the connection stays up for the calls still
// in flight; the timeout error is unreachable-classified (the shared
// retry contract) but not errBrokenConn, so it never triggers the
// stale-conn redial.
func (c *muxConn) sweepLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			var expired []pendingCall
			c.pmu.Lock()
			for id, pc := range c.pending {
				if now.After(pc.deadline) {
					delete(c.pending, id)
					expired = append(expired, pc)
				}
			}
			c.pmu.Unlock()
			for _, pc := range expired {
				pc.ch <- callResult{err: fmt.Errorf("%w: call timed out", ErrUnreachable)}
			}
		case <-c.closed:
			return
		}
	}
}

func (t *TCPTransport) remove(addr string, c *muxConn) {
	t.mu.Lock()
	if t.conns[addr] == c {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

// readLoop is the connection's single reader: it decodes each response
// frame in place in the read buffer, detaches it (receiveResponse) and
// hands it to the caller registered under its correlation ID. Responses
// without a waiter (the caller timed out) are dropped.
func (c *muxConn) readLoop() {
	for {
		payload, err := c.fc.readBorrowed()
		if err != nil {
			c.fail(fmt.Errorf("receive: %v", err))
			return
		}
		var resp Response
		if err := receiveResponse(payload, &resp); err != nil {
			c.fail(err)
			return
		}
		c.pmu.Lock()
		pc, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.pmu.Unlock()
		if ok {
			pc.ch <- callResult{resp: resp}
		}
	}
}

// numConns reports live pooled connections (test hook).
func (t *TCPTransport) numConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Close tears down every pooled connection, failing their in-flight
// calls, and rejects future dials.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := make([]*muxConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.fail(errors.New("transport closed"))
	}
	return nil
}
