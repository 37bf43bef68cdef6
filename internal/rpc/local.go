package rpc

import (
	"sync"
	"time"

	"scads/internal/clock"
)

// LocalTransport is the in-process Transport of the cluster simulator:
// handlers register under logical addresses, and nodes can be
// partitioned or crashed for failure experiments. A call crosses the
// same wire as a TCP call, minus the socket: its request is encoded
// into a frame and decoded as the TCP server decodes it (a point read
// borrowed, anything else detached), served, and its response encoded
// and decoded as the TCP client decodes it. A point read's frame is
// overwritten once its response is encoded, so a handler that keeps a
// borrowed byte field past Serve sees it change.
type LocalTransport struct {
	// Clock charges Latency per call when set (nil disables).
	Clock clock.Clock
	// Latency is the simulated one-way network + service delay added
	// per call when Clock is non-nil.
	Latency time.Duration

	mu        sync.RWMutex
	handlers  map[string]Handler
	down      map[string]bool
	applyDown map[string]bool
	names     internTable
}

// NewLocalTransport returns an empty registry.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{
		handlers:  make(map[string]Handler),
		down:      make(map[string]bool),
		applyDown: make(map[string]bool),
	}
}

// Register binds addr to h. Re-registering replaces the handler.
func (t *LocalTransport) Register(addr string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[addr] = h
	delete(t.down, addr)
}

// Unregister removes addr entirely (simulates decommissioning).
func (t *LocalTransport) Unregister(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, addr)
	delete(t.down, addr)
}

// SetDown marks addr unreachable without removing it (simulates a
// crash or partition).
func (t *LocalTransport) SetDown(addr string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[addr] = down
}

// SetApplyDown severs only the update link to addr: MethodApply and
// MethodSwap calls fail while reads still reach the node. This models the §3.3.1
// datacenter disconnect, where a replica keeps serving clients on its
// side of the partition but no longer receives updates — so its data
// grows stale.
func (t *LocalTransport) SetApplyDown(addr string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyDown[addr] = down
}

// Call implements Transport.
func (t *LocalTransport) Call(addr string, req Request) (Response, error) {
	t.mu.RLock()
	h, ok := t.handlers[addr]
	down := t.down[addr] || (t.applyDown[addr] && (req.Method == MethodApply || req.Method == MethodSwap))
	t.mu.RUnlock()
	if !ok || down {
		return Response{}, ErrUnreachable
	}
	if t.Clock != nil && t.Latency > 0 {
		t.Clock.Sleep(t.Latency)
	}
	frames, err := encodeRequestFrame(&req)
	if err != nil {
		return Response{}, err
	}
	defer putFrameBuf(frames)
	reqFrame := *frames
	var served Request
	lent, err := receiveRequest(reqFrame[4:], &t.names, &served)
	if err != nil {
		return Response{}, err
	}
	resp := serve(h, &served)
	// The response frame follows the request's in the one buffer; a
	// buffer grown by it leaves the lent bytes in the old array.
	*frames = appendResponseFrame(reqFrame, &resp, maxFrameSize)
	if lent {
		clear(reqFrame)
	}
	var out Response
	err = receiveResponse((*frames)[len(reqFrame)+4:], &out)
	return out, err
}
