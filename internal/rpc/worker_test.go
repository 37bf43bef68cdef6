package rpc

import (
	"testing"
	"time"
)

// gatedServer serves applies that wait on the gate and every other
// method at once,
// over one multiplexed client connection.
type gatedServer struct {
	srv     *Server
	addr    string
	tr      *TCPTransport
	entered chan struct{} // one send per apply that reached its handler
	release chan struct{} // closed to let every waiting apply return
}

func newGatedServer(t *testing.T) *gatedServer {
	t.Helper()
	g := &gatedServer{entered: make(chan struct{}, maxConnHandlers), release: make(chan struct{})}
	g.srv = NewServer(HandlerFunc(func(req Request) Response {
		if req.Method == MethodApply {
			g.entered <- struct{}{}
			<-g.release
		}
		return Response{Found: true}
	}))
	var err error
	if g.addr, err = g.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	g.tr = NewTCPTransport()
	g.tr.Timeout = 30 * time.Second
	t.Cleanup(func() {
		g.tr.Close()
		g.srv.Close()
	})
	return g
}

// applies starts n applies and waits until each has reached its
// handler. The returned channel yields each one's error once it
// returns.
func (g *gatedServer) applies(t *testing.T, n int) <-chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := g.tr.Call(g.addr, Request{Method: MethodApply, Namespace: "ns"})
			if err == nil {
				err = resp.Error()
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d applies reached a handler", i, n)
		}
	}
	return errs
}

// waitWorkers waits until the server has want live workers.
func (g *gatedServer) waitWorkers(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.srv.workers.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d live workers, want %d", g.srv.workers.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerSlowHandlerDoesNotDelayNext: while one request is held in
// its handler, the next request on the same connection is served by
// another worker.
func TestWorkerSlowHandlerDoesNotDelayNext(t *testing.T) {
	g := newGatedServer(t)
	held := g.applies(t, 1)
	start := time.Now()
	if _, err := g.tr.Call(g.addr, Request{Method: MethodStats}); err != nil {
		t.Fatalf("call behind a held handler: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("call behind a held handler took %v", d)
	}
	select {
	case err := <-held:
		t.Fatalf("held apply returned before its release: %v", err)
	default:
	}
	close(g.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerIdleAboveCapExit: a burst starts a worker per request held
// at once; once it has passed, the workers above maxIdleWorkers exit,
// and the ones left serve what comes next without starting another.
func TestWorkerIdleAboveCapExit(t *testing.T) {
	g := newGatedServer(t)
	const burst = maxIdleWorkers + 8
	errs := g.applies(t, burst)
	g.waitWorkers(t, burst)
	close(g.release)
	for i := 0; i < burst; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	g.waitWorkers(t, maxIdleWorkers)
	for i := 0; i < 3*maxIdleWorkers; i++ {
		if _, err := g.tr.Call(g.addr, Request{Method: MethodStats}); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.srv.workers.Load(); n != maxIdleWorkers {
		t.Fatalf("%d live workers after sequential calls, want the %d idle ones", n, maxIdleWorkers)
	}
}

// TestWorkerCloseJoinsWorkers: Server.Close returns only once every
// worker has returned — the one held in its handler and the idle ones.
func TestWorkerCloseJoinsWorkers(t *testing.T) {
	g := newGatedServer(t)
	errs := g.applies(t, 3)
	closed := make(chan struct{})
	go func() {
		g.srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while handlers were still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the handlers did")
	}
	if n := g.srv.workers.Load(); n != 0 {
		t.Fatalf("%d workers live after Close", n)
	}
	for i := 0; i < 3; i++ {
		<-errs // answered, or failed with the closed connection
	}
}

// TestWorkerShedStillOverloaded: with every data slot of a connection
// held, one more data request is shed with ErrOverloaded and its
// retry-after hint, and starts no worker; once the slots free up, the
// connection serves again.
func TestWorkerShedStillOverloaded(t *testing.T) {
	g := newGatedServer(t)
	dataSlots := maxConnHandlers - controlHandlerReserve
	errs := g.applies(t, dataSlots)
	resp, err := g.tr.Call(g.addr, Request{Method: MethodApply, Namespace: "ns"})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Error(); !IsOverloaded(e) || RetryAfter(e) != shedRetryAfter {
		t.Fatalf("request past the data slots = %v, want ErrOverloaded retrying after %v", e, shedRetryAfter)
	}
	if n := g.srv.workers.Load(); n != int64(dataSlots) {
		t.Fatalf("%d live workers, want one per held slot (%d)", n, dataSlots)
	}
	close(g.release)
	for i := 0; i < dataSlots; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.tr.Call(g.addr, Request{Method: MethodApply, Namespace: "ns"}); err != nil {
		t.Fatalf("apply after the slots freed up: %v", err)
	}
}
