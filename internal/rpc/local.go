package rpc

import (
	"sync"
	"time"

	"scads/internal/clock"
)

// LocalTransport is an in-process Transport used by the cluster
// simulator: handlers register under logical addresses, calls dispatch
// directly (optionally charging simulated latency against a virtual
// clock), and nodes can be partitioned or crashed for failure
// experiments.
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

// SetApplyDown severs only the replication link to addr: MethodApply
// calls fail while reads still reach the node. This models the §3.3.1
// datacenter disconnect, where a replica keeps serving clients on its
// side of the partition but no longer receives updates — so its data
// grows stale.
func (t *LocalTransport) SetApplyDown(addr string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyDown[addr] = down
}

// Addrs returns all registered addresses.
func (t *LocalTransport) Addrs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.handlers))
	for a := range t.handlers {
		out = append(out, a)
	}
	return out
}

// Call implements Transport.
func (t *LocalTransport) Call(addr string, req Request) (Response, error) {
	t.mu.RLock()
	h, ok := t.handlers[addr]
	down := t.down[addr] || (t.applyDown[addr] && req.Method == MethodApply)
	t.mu.RUnlock()
	if !ok || down {
		return Response{}, ErrUnreachable
	}
	if t.Clock != nil && t.Latency > 0 {
		t.Clock.Sleep(t.Latency)
	}
	resp := h.Serve(req)
	resp.ID = req.ID
	return resp, nil
}
