package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scads/internal/clock"
)

// Status describes a member's lifecycle state.
type Status int

// Lifecycle states: a node boots (utility-computing instances take
// minutes to come up — paper §2.1), serves while up, and is marked
// down when heartbeats stop or the director decommissions it.
const (
	StatusBooting Status = iota
	StatusUp
	StatusDown
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusBooting:
		return "booting"
	case StatusUp:
		return "up"
	case StatusDown:
		return "down"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Member is one node in the directory.
type Member struct {
	ID            string
	Addr          string
	Status        Status
	LastHeartbeat time.Time
	JoinedAt      time.Time

	draining bool // leaving: serves as before, but Up leaves it out
}

// Directory tracks cluster membership. The SCADS director and routers
// consult it; storage nodes heartbeat into it. Safe for concurrent use.
type Directory struct {
	clk clock.Clock

	mu      sync.RWMutex
	members map[string]*Member
}

// NewDirectory returns an empty directory using clk for timestamps.
func NewDirectory(clk clock.Clock) *Directory {
	return &Directory{clk: clk, members: make(map[string]*Member)}
}

// Join registers (or re-registers) a member in the booting state.
func (d *Directory) Join(id, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	d.members[id] = &Member{
		ID:            id,
		Addr:          addr,
		Status:        StatusBooting,
		LastHeartbeat: now,
		JoinedAt:      now,
	}
}

// MarkUp transitions a member to serving state.
func (d *Directory) MarkUp(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[id]; ok {
		m.Status = StatusUp
		m.LastHeartbeat = d.clk.Now()
	}
}

// MarkDown transitions a member to the down state.
func (d *Directory) MarkDown(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[id]; ok {
		m.Status = StatusDown
	}
}

// Drain marks a member as leaving (on) or lifts the mark. A draining
// member keeps serving — Addr, routing and liveness are unchanged — but
// Up, the pool every placement draws from, leaves it out. The mark
// outlives MarkDown, so a decommissioned node that heartbeats back is
// never placed again.
func (d *Directory) Drain(id string, on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[id]; ok {
		m.draining = on
	}
}

// Remove deletes a member entirely (decommissioned instance).
func (d *Directory) Remove(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.members, id)
}

// Heartbeat records a liveness signal from id. Unknown IDs are
// ignored. A heartbeat from a down node resurrects it to up.
func (d *Directory) Heartbeat(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[id]; ok {
		m.LastHeartbeat = d.clk.Now()
		if m.Status == StatusDown {
			m.Status = StatusUp
		}
	}
}

// ExpireStale marks every up member whose last heartbeat is older than
// timeout as down, returning the IDs it transitioned.
func (d *Directory) ExpireStale(timeout time.Duration) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	var expired []string
	for id, m := range d.members {
		if m.Status == StatusUp && now.Sub(m.LastHeartbeat) > timeout {
			m.Status = StatusDown
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	return expired
}

// Get returns a copy of the member with the given ID.
func (d *Directory) Get(id string) (Member, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m, ok := d.members[id]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// Addr returns the address of id if the member is serving: up,
// draining or not.
func (d *Directory) Addr(id string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m, ok := d.members[id]
	if !ok || m.Status != StatusUp {
		return "", false
	}
	return m.Addr, true
}

// Members returns copies of all members, sorted by ID.
func (d *Directory) Members() []Member {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Member, 0, len(d.members))
	for _, m := range d.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Up returns the IDs of the members a placement may use — serving and
// not draining — sorted.
func (d *Directory) Up() []string {
	var out []string
	for _, m := range d.Members() {
		if m.Status == StatusUp && !m.draining {
			out = append(out, m.ID)
		}
	}
	return out
}
