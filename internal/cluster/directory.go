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

// Up returns the IDs of the members currently serving, sorted.
func (d *Directory) Up() []string {
	var out []string
	for _, m := range d.Members() {
		if m.Status == StatusUp {
			out = append(out, m.ID)
		}
	}
	return out
}
