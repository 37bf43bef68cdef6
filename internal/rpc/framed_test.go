package rpc

// Tests for the framed connection under both ends of the wire: the
// buffered reader, the combining writer on real sockets, and the
// allocation pins of the unary call path.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readFrame reads one frame from rd through a connection reader of its
// own, for the codec tests that frame by hand.
func readFrame(rd io.Reader) ([]byte, error) {
	return (&framedConn{br: bufio.NewReaderSize(rd, readBufSize)}).readBorrowed()
}

// decodeRequest decodes without an intern table and detaches, as the
// codec tests want it.
func decodeRequest(b []byte) (Request, error) {
	var req Request
	err := decodeRequestBorrowed(b, nil, &req)
	if err == nil {
		detachRequest(&req)
	}
	return req, err
}

// decodeResp is decodeResponse returning the response, borrowed.
func decodeResp(b []byte) (Response, error) {
	var resp Response
	err := decodeResponse(b, &resp)
	return resp, err
}

// TestRequestDecodeInternsNames: with a connection's intern table a
// request whose only strings are a namespace and a tenant already seen
// decodes without allocating (no byte field, so no arena either), and
// the table stops growing at its bound.
func TestRequestDecodeInternsNames(t *testing.T) {
	frame := func(ns string) []byte {
		bp, err := encodeRequestFrame(&Request{Method: MethodStats, Namespace: ns, Tenant: "tenant-a"})
		if err != nil {
			t.Fatal(err)
		}
		defer putFrameBuf(bp)
		return append([]byte(nil), (*bp)[4:]...)
	}
	names := &internTable{}
	payload := frame("tbl.users")
	if n := testing.AllocsPerRun(100, func() {
		var req Request
		if err := decodeRequestBorrowed(payload, names, &req); err != nil || req.Namespace != "tbl.users" || req.Tenant != "tenant-a" {
			t.Fatalf("decode = %+v, %v", req, err)
		}
	}); n != 0 {
		t.Errorf("decode of a request with interned names allocates %.0f times, want 0", n)
	}
	for i := 0; i < 3*maxInternedNames; i++ {
		ns := fmt.Sprintf("ns-%d", i)
		var req Request
		if err := decodeRequestBorrowed(frame(ns), names, &req); err != nil || req.Namespace != ns {
			t.Fatalf("decode %q = %+v, %v", ns, req, err)
		}
	}
	if n := len(*names.names.Load()); n > maxInternedNames {
		t.Errorf("intern table grew to %d entries, bound %d", n, maxInternedNames)
	}
}

// appendTestFrame appends one request frame whose payload is derived
// from id, and checkTestFrame verifies a payload read off the wire is
// exactly such a frame — whole, and not interleaved with a neighbour.
func appendTestFrame(t *testing.T, dst []byte, id, size int) []byte {
	t.Helper()
	req := Request{ID: uint64(id), Method: MethodPut,
		Key: []byte(fmt.Sprintf("frame-%d", id)), Value: bytes.Repeat([]byte{byte(id)}, size)}
	bp, err := encodeRequestFrame(&req)
	if err != nil {
		t.Fatal(err)
	}
	defer putFrameBuf(bp)
	return append(dst, *bp...)
}

func checkTestFrame(t *testing.T, payload []byte, size int) int {
	t.Helper()
	req, err := decodeRequest(payload)
	if err != nil {
		t.Fatalf("frame does not decode: %v", err)
	}
	id := int(req.ID)
	if string(req.Key) != fmt.Sprintf("frame-%d", id) || !bytes.Equal(req.Value, bytes.Repeat([]byte{byte(id)}, size)) {
		t.Fatalf("frame %d arrived damaged: key %q, %d value bytes", id, req.Key, len(req.Value))
	}
	return id
}

// TestFramedReaderBurst: frames of every size class — in place in the
// read buffer, straddling its end, larger than it, larger than
// maxPooledFrame — written back to back come out whole and in order,
// and the oversized one does not leave its scratch buffer behind for
// the connection's lifetime.
func TestFramedReaderBurst(t *testing.T) {
	sizes := []int{1, 100, readBufSize - 200, 300, readBufSize, readBufSize + 1, 5, maxPooledFrame / 2, 7, maxPooledFrame + 1, 9}
	var stream []byte
	for id, size := range sizes {
		stream = appendTestFrame(t, stream, id, size)
	}
	f := &framedConn{br: bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)}
	for id, size := range sizes {
		payload, err := f.readBorrowed()
		if err != nil {
			t.Fatalf("read of frame %d: %v", id, err)
		}
		if got := checkTestFrame(t, payload, size); got != id {
			t.Fatalf("read returned frame %d, want %d", got, id)
		}
		if cap(f.scratch) > maxPooledFrame {
			t.Fatalf("read of a %d-byte frame left a %d-byte scratch buffer on the connection (limit %d)",
				size, cap(f.scratch), maxPooledFrame)
		}
	}
	if _, err := f.readBorrowed(); err != io.EOF {
		t.Fatalf("read past the last frame = %v, want io.EOF", err)
	}
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// gatedConn counts Write calls and parks the first one until released.
type gatedConn struct {
	net.Conn
	writes  atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		close(c.entered)
		<-c.release
	}
	return c.Conn.Write(p)
}

// TestCombiningWriterOneWriteForQueuedFrames: K frames sent while a
// write is in progress do not wait for it, leave together in the one
// write that follows it, and arrive intact and un-interleaved.
func TestCombiningWriterOneWriteForQueuedFrames(t *testing.T) {
	client, server := tcpPair(t)
	gated := &gatedConn{Conn: client, entered: make(chan struct{}), release: make(chan struct{})}
	f := newFramedConn(gated, time.Minute, func(err error) { t.Errorf("write failed: %v", err) })

	const queued, size = 32, 600
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		f.send(appendTestFrame(t, nil, 0, size), time.Now())
	}()
	<-gated.entered // frame 0's write is in progress and stuck

	var wg sync.WaitGroup
	for id := 1; id <= queued; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f.send(appendTestFrame(t, nil, id, size), time.Now())
		}(id)
	}
	wg.Wait() // returns although the socket is still held by frame 0's write
	select {
	case <-firstDone:
		t.Fatal("the gated write returned before release")
	default:
	}
	close(gated.release)
	<-firstDone
	if n := gated.writes.Load(); n != 2 {
		t.Errorf("%d frames queued behind one write left in %d writes, want 1", queued, n-1)
	}

	peer := newFramedConn(server, time.Minute, nil)
	seen := make(map[int]bool)
	for i := 0; i <= queued; i++ {
		payload, err := peer.readBorrowed()
		if err != nil {
			t.Fatalf("reading frame %d of %d: %v", i, queued+1, err)
		}
		id := checkTestFrame(t, payload, size)
		if seen[id] {
			t.Fatalf("frame %d arrived twice", id)
		}
		seen[id] = true
	}
}

// TestStalledPeerCallsReturnByDeadline: against a peer that accepts
// and never reads, every call — the one whose own write is stuck in
// the socket, and the ones whose frames queue behind it — returns
// within its Timeout plus one sweep, classified unreachable.
func TestStalledPeerCallsReturnByDeadline(t *testing.T) {
	client, server := tcpPair(t)
	// Small socket buffers, so the stall sets in after a few frames.
	server.(*net.TCPConn).SetReadBuffer(256 << 10)
	client.(*net.TCPConn).SetWriteBuffer(4 << 10)

	tr := NewTCPTransport()
	tr.Timeout = 300 * time.Millisecond
	defer tr.Close()
	addr := server.LocalAddr().String()
	c, err := tr.adopt(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds stay inside the four-timeout allowance after which the
	// stalled connection is failed (and calls would redial).
	const callers, rounds = 12, 2
	limit := tr.Timeout + sweepInterval(tr.Timeout) + 250*time.Millisecond // scheduling slack
	value := bytes.Repeat([]byte("v"), 256<<10)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				start := time.Now()
				_, err := c.do(&Request{Method: MethodPut, Key: []byte("k"), Value: value}, tr.Timeout)
				if took := time.Since(start); took > limit {
					t.Errorf("call against a stalled peer took %v, want <= %v", took, limit)
				}
				if !IsUnreachable(err) || errors.Is(err, errBrokenConn) {
					t.Errorf("call against a stalled peer = %v, want a per-call timeout", err)
				}
			}
		}()
	}
	wg.Wait()
}

// failingConn fails every Write once armed.
type failingConn struct {
	net.Conn
	armed atomic.Bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestWriteErrorFailsInFlightCallsOnce: a write error tears the
// connection down and every in-flight call — parked in a handler or
// making the failing write — gets the connection error, exactly once:
// no call hangs, and no second delivery is left behind in a pooled
// result channel for a later call to trip over.
func TestWriteErrorFailsInFlightCallsOnce(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 16), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(h.release)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	failing := &failingConn{Conn: conn}
	tr := NewTCPTransport()
	tr.Timeout = 10 * time.Second
	defer tr.Close()
	c, err := tr.adopt(addr, failing)
	if err != nil {
		t.Fatal(err)
	}

	const parked = 8
	errs := make(chan error, parked+1)
	for i := 0; i < parked; i++ {
		go func() {
			_, err := c.do(&Request{Method: MethodScan}, tr.Timeout)
			errs <- err
		}()
	}
	for i := 0; i < parked; i++ {
		<-h.entered
	}
	failing.armed.Store(true)
	go func() {
		_, err := c.do(&Request{Method: MethodPing}, tr.Timeout)
		errs <- err
	}()
	for i := 0; i <= parked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errBrokenConn) || !IsUnreachable(err) {
				t.Errorf("in-flight call on a connection whose write failed = %v, want the broken-connection error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d in-flight calls never returned after the write error", parked+1-i, parked+1)
		}
	}
	if n := tr.numConns(); n != 0 {
		t.Errorf("failed connection still pooled (%d conns)", n)
	}
	// The result channels those calls used are back in the pool. A
	// double delivery would have left a stale error in one of them.
	for i := 0; i < 4*(parked+1); i++ {
		if _, err := tr.Call(addr, Request{Method: MethodPing}); err != nil {
			t.Fatalf("call %d after the failure = %v (stale result in a pooled channel?)", i, err)
		}
	}
}

// enteringConn signals the first Write before passing it on.
type enteringConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
}

func (c *enteringConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	return c.Conn.Write(p)
}

// TestParkedSenderWokenAfterStalledWriteHandOff: with the queue at its
// limit a third sender parks; the first sender's write then outlasts
// writeTimeout and is handed to the background finisher, which empties
// the queue. The parked sender must be woken by that, not left waiting
// for a queue swap that an idle connection never makes again. net.Pipe
// is unbuffered, so the peer decides exactly when the writer stalls.
func TestParkedSenderWokenAfterStalledWriteHandOff(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := &enteringConn{Conn: a, entered: make(chan struct{})}
	f := newFramedConn(conn, 100*time.Millisecond, func(err error) { t.Errorf("write failed: %v", err) })
	f.queueLimit = 1

	const size = 64
	sent := func(id int) chan struct{} {
		done := make(chan struct{})
		frame := appendTestFrame(t, nil, id, size)
		go func() {
			defer close(done)
			f.send(frame, time.Now())
		}()
		return done
	}
	within := func(what string, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned", what)
		}
	}
	first := sent(0)
	<-conn.entered // frame 0's write is stuck: nobody reads the pipe
	within("the sender that queues behind the stalled write", sent(1))
	parked := sent(2) // the queue is at its limit
	within("the sender whose own write stalled past writeTimeout", first)
	select {
	case <-parked:
	case <-time.After(50 * time.Millisecond): // still parked, or already let through by the hand-off
	}

	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	peer := newFramedConn(b, time.Minute, nil)
	for want := 0; want <= 2; want++ { // the peer resumes reading
		payload, err := peer.readBorrowed()
		if err != nil {
			t.Fatalf("reading frame %d: %v", want, err)
		}
		if got := checkTestFrame(t, payload, size); got != want {
			t.Fatalf("frame %d arrived in position %d", got, want)
		}
	}
	within("the sender parked on the queue limit", parked)
	finished := make(chan struct{})
	go func() { f.finisher.Wait(); close(finished) }()
	within("the background finisher", finished)
}

// TestServerCloseJoinsAfterStalledClientResumes: a client pipelines
// requests and does not read until the server's write has stalled past
// its timeout with handlers parked behind the response queue limit;
// then it reads. Every response arrives, and Close joins every handler.
func TestServerCloseJoinsAfterStalledClientResumes(t *testing.T) {
	const requests, size = 16, 1 << 20
	value := bytes.Repeat([]byte("r"), size)
	s := NewServer(HandlerFunc(func(Request) Response { return Response{Value: value} }))
	s.writeTimeout = 250 * time.Millisecond // the connection fails after four of these
	s.queueLimit = 1
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(256 << 10)
	for id := 1; id <= requests; id++ {
		bp, err := encodeRequestFrame(&Request{ID: uint64(id), Method: MethodGet, Key: []byte("k")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(*bp); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(bp)
	}
	time.Sleep(350 * time.Millisecond) // past writeTimeout: the stalled write has been handed off

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	peer := newFramedConn(conn, time.Minute, nil)
	seen := make(map[uint64]bool)
	for i := 0; i < requests; i++ {
		payload, err := peer.readBorrowed()
		if err != nil {
			t.Fatalf("reading response %d of %d: %v", i+1, requests, err)
		}
		resp, err := decodeResp(payload)
		if err != nil || resp.Err != "" || len(resp.Value) != size || seen[resp.ID] {
			t.Fatalf("response %d = id %d, %d value bytes, err %q / %v", i+1, resp.ID, len(resp.Value), resp.Err, err)
		}
		seen[resp.ID] = true
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not join: handlers are still parked behind the response queue")
	}
}
