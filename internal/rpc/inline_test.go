package rpc

// Tests for the server's inline dispatch: point reads are served on the
// connection's read loop and their responses leave together once no
// complete frame is left to read; every other method keeps its handler
// goroutine.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"scads/internal/record"
)

// keyEcho answers a get, or each key of a multi-get, with its key as
// the value.
func keyEcho(req Request) Response {
	if req.Method != MethodBatch {
		return Response{Found: true, Value: req.Key}
	}
	recs := make([]record.Record, len(req.Records))
	for i, key := range req.Records {
		recs[i].Value = key.Key
	}
	return Response{Found: true, Records: recs}
}

// echoes reports whether resp is keyEcho's answer to req.
func echoes(req Request, resp Response) bool {
	if req.Method != MethodBatch {
		return bytes.Equal(resp.Value, req.Key)
	}
	if len(resp.Records) != len(req.Records) {
		return false
	}
	for i := range req.Records {
		if !bytes.Equal(resp.Records[i].Value, req.Records[i].Key) {
			return false
		}
	}
	return true
}

func getFrame(t *testing.T, id int) []byte {
	t.Helper()
	bp, err := encodeRequestFrame(&Request{ID: uint64(id), Method: MethodGet, Key: []byte(fmt.Sprintf("key-%d", id))})
	if err != nil {
		t.Fatal(err)
	}
	defer putFrameBuf(bp)
	return append([]byte(nil), *bp...)
}

// readGetResponse reads one response and checks it answers get id.
func readGetResponse(t *testing.T, peer *framedConn, id int) {
	t.Helper()
	payload, err := peer.readBorrowed()
	if err != nil {
		t.Fatalf("reading the response to get %d: %v", id, err)
	}
	resp, err := decodeResp(payload)
	if err != nil || resp.ID != uint64(id) || string(resp.Value) != fmt.Sprintf("key-%d", id) {
		t.Fatalf("response = %+v, %v; want get %d's key", resp, err, id)
	}
}

func TestInlinePointReadRule(t *testing.T) {
	for _, c := range []struct {
		method string
		want   bool
	}{
		{MethodGet, true},
		{MethodBatch, true},
		{MethodPut, false},
		{MethodScan, false},
		{MethodApply, false},
		{MethodPing, false},
	} {
		if got := isPointRead(&Request{Method: c.method}); got != c.want {
			t.Errorf("isPointRead(%s) = %v, want %v", c.method, got, c.want)
		}
	}
}

// TestInlineGetsFlushBeforePartialFrame: a get frame followed by the
// first bytes of the next is answered before the rest of that frame is
// sent — the held responses never wait on a read that could block —
// whether the cut falls inside the length prefix or inside the payload.
func TestInlineGetsFlushBeforePartialFrame(t *testing.T) {
	s := NewServer(HandlerFunc(keyEcho))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	peer := newFramedConn(conn, time.Minute, nil)

	cuts := []int{1, 2, 4, 7} // inside the length prefix, at its end, inside the payload
	unsent := getFrame(t, 1)
	for i, cut := range cuts {
		next := getFrame(t, i+2)
		if _, err := conn.Write(append(unsent, next[:cut]...)); err != nil {
			t.Fatal(err)
		}
		readGetResponse(t, peer, i+1)
		unsent = next[cut:]
	}
	if _, err := conn.Write(unsent); err != nil {
		t.Fatal(err)
	}
	readGetResponse(t, peer, len(cuts)+1)
}

// TestInlineGetsOneWriteForBurst: N get frames that arrive in one read
// are answered with N correct responses in one server write.
func TestInlineGetsOneWriteForBurst(t *testing.T) {
	s := NewServer(HandlerFunc(keyEcho))
	client, server := net.Pipe() // one client Write is one server read
	counted := &gatedConn{Conn: server, entered: make(chan struct{}), release: make(chan struct{})}
	close(counted.release)
	s.wg.Add(1)
	go s.serveConn(counted)

	const n = 32
	var burst []byte
	for id := 1; id <= n; id++ {
		burst = append(burst, getFrame(t, id)...)
	}
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	peer := newFramedConn(client, time.Minute, nil)
	for id := 1; id <= n; id++ {
		readGetResponse(t, peer, id)
	}
	client.Close()
	s.Close() // joins serveConn, which returns on the closed pipe
	if w := counted.writes.Load(); w != 1 {
		t.Errorf("%d pipelined gets were answered in %d writes, want 1", n, w)
	}
}

// TestInlineGetsOvertakeParkedScan: with a scan parked in its handler,
// gets and a multi-get behind it on the same connection are answered —
// the scan holds a goroutine, not the read loop.
func TestInlineGetsOvertakeParkedScan(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(h.release) })
	defer release() // a failure below must not leave Close waiting on the scan
	tr := NewTCPTransport()
	defer tr.Close()

	slowDone := make(chan Response, 1)
	go func() {
		resp, _ := tr.Call(addr, Request{Method: MethodScan})
		slowDone <- resp
	}()
	<-h.entered
	for i := 0; i < 20; i++ {
		if resp, err := tr.Call(addr, Request{Method: MethodGet, Key: []byte("k")}); err != nil || !resp.Found {
			t.Fatalf("get %d behind a parked scan = %+v, %v", i, resp, err)
		}
	}
	multi := Request{Method: MethodBatch, Records: []record.Record{{Key: []byte("a")}, {Key: []byte("b")}}}
	if resp, err := tr.Call(addr, multi); err != nil || !resp.Found {
		t.Fatalf("multi-get behind a parked scan = %+v, %v", resp, err)
	}
	if n := tr.numConns(); n != 1 {
		t.Fatalf("calls escaped to %d conns; want overtaking on the 1 shared conn", n)
	}
	select {
	case <-slowDone:
		t.Fatal("parked scan completed before release")
	default:
	}
	release()
	if resp := <-slowDone; string(resp.Value) != "slow" {
		t.Fatalf("parked scan resp = %+v", resp)
	}
}

// TestServerCloseJoinsInlineServe: Close does not return while a read
// loop is inside an inline Serve, and returns once it finishes.
func TestServerCloseJoinsInlineServe(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewServer(h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport()
	defer tr.Close()

	go tr.Call(addr, Request{Method: MethodGet}) //nolint:errcheck // the call dies with the server
	<-h.entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Server.Close returned while a read loop was inside an inline Serve")
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Server.Close never returned after the inline Serve finished")
	}
}

// TestInlineGetsKeepParkedRequestIntact: a request served on a handler
// goroutine owns its bytes, while point reads borrow theirs from the
// read buffer. With an apply parked in its handler, pipelined point
// reads with distinct keys (gets and multi-gets) refill the
// connection's read buffer over the frame it arrived in; released, the
// handler still sees exactly what was sent.
func TestInlineGetsKeepParkedRequestIntact(t *testing.T) {
	long := func(s string) []byte { return bytes.Repeat([]byte(s), 100) }
	for _, c := range []struct {
		name   string
		parked Request
		flood  func(i int) Request
	}{
		{
			name: "apply",
			parked: Request{Method: MethodApply, Namespace: "users", Key: []byte("apply-key"), Value: long("v"),
				Records: []record.Record{
					{Key: []byte("rec-key-1"), Value: long("a"), Version: 7},
					{Key: []byte("rec-key-2"), Version: 8, Tombstone: true},
					{Key: []byte("rec-key-3"), Value: long("b"), Version: 9},
				}},
			flood: func(i int) Request {
				if i%2 == 0 {
					return Request{Method: MethodGet, Namespace: "users", Key: []byte(fmt.Sprintf("flood-get-%03d", i))}
				}
				return Request{Method: MethodBatch, Namespace: "users", Records: []record.Record{
					{Key: []byte(fmt.Sprintf("flood-multi-%03d-a", i))},
					{Key: []byte(fmt.Sprintf("flood-multi-%03d-b", i))},
				}}
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			seen := make(chan Request, 1)
			s := NewServer(HandlerFunc(func(req Request) Response {
				if isPointRead(&req) {
					return keyEcho(req)
				}
				close(entered)
				<-release
				seen <- req
				return Response{Found: true}
			}))
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			releaseOnce := sync.OnceFunc(func() { close(release) })
			defer releaseOnce() // a failure below must not leave Close waiting on the handler
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			peer := newFramedConn(conn, time.Minute, nil)
			send := func(reqs ...Request) {
				t.Helper()
				var out []byte
				for i := range reqs {
					bp, err := encodeRequestFrame(&reqs[i])
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, *bp...)
					putFrameBuf(bp)
				}
				if _, err := conn.Write(out); err != nil {
					t.Fatal(err)
				}
			}

			want := c.parked
			want.ID = 1
			send(want)
			<-entered
			const n = 64
			flood := make([]Request, n)
			for i := range flood {
				flood[i] = c.flood(i)
				flood[i].ID = uint64(i + 2)
			}
			send(flood...)
			for i := range flood {
				payload, err := peer.readBorrowed()
				if err != nil {
					t.Fatalf("reading point read %d: %v", i, err)
				}
				resp, err := decodeResp(payload)
				if err != nil || resp.ID != flood[i].ID || !echoes(flood[i], resp) {
					t.Fatalf("point read %d = %+v, %v; want its keys echoed", i, resp, err)
				}
			}
			releaseOnce()
			if got := <-seen; !reflect.DeepEqual(got, want) {
				t.Fatalf("parked %s saw other bytes than were sent:\n have %+v\n want %+v", c.name, got, want)
			}
		})
	}
}
