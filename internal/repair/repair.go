// Package repair implements the self-healing crash-recovery loop: the
// missing half of the SCADS director's promise to keep data served
// "despite node failures".
//
// A Manager sweeps on a clock. Each sweep first detects failures:
// every directory member is probed with a ping, responsive members
// heartbeat into the directory, Directory.ExpireStale marks silent ones
// down, and status transitions become node-down / node-up events. A
// serving member is also audited against the replication pump's
// per-target drop counter: one to which a delivery was abandoned since
// the last sweep (while it was away, or over a severed replication
// link while it still answered pings) is irrecoverably stale. It must
// be rebuilt through the migration protocol's truncate → snapshot →
// delta catch-up, not patched: compaction garbage-collects tombstones,
// so merging over a stale copy could resurrect deletes.
//
// The sweep then walks every range once, in this order:
//
//  1. Demote. A stale node serving the range as a secondary leaves its
//     replica group and is remembered as a former member. Never the
//     primary (authoritative by definition), and never the last live
//     member (serving stale data beats serving nothing).
//  2. Fail over. A range whose primary is down but which has a live
//     replica is flipped, by the partition map's compare-and-set, to its
//     live members ordered freshest first, its dead members kept at the
//     tail. Freshness ranks each candidate by its probed maximum
//     accepted record version (a coordinator HLC stamp, comparable
//     across nodes), ties broken by the replication tracker's staleness
//     bound. Nothing is copied: failover completes within the sweep,
//     and writes spinning in the coordinator's down-retry loop land on
//     the promoted replica.
//  3. Repair. reconcileTarget, the one repair rule, names the replica
//     set the range should have. If that differs from the current set,
//     a journaled job (at most one per range, bounded parallelism)
//     moves the range through migration.Manager, whose plan asks the
//     same rule again under the range's lock.
//
// The rule keeps every live member, and every down member within
// ReplaceAfter, in its slot. It rejoins a returned former member at
// once (its copy is rebuilt by the usual catch-up), recruits a
// brand-new spare only after the range has been short for
// ReplaceAfter or to replace a member past its grace, and drops a
// member past its grace only when a replacement takes its place. A
// range with nothing to add or drop keeps its replicas as they are, so
// no job starts for it.
//
// The loop is level-triggered: every decision is re-derived from the
// current directory and partition maps, so races with concurrent moves
// (a flip is a compare-and-set, a move plans under the range's lock)
// or with operator actions converge within a sweep or two.
package repair

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/migration"
	"scads/internal/partition"
	"scads/internal/replication"
	"scads/internal/rpc"
)

// Config tunes the repair loop. The zero value selects the defaults.
type Config struct {
	// HeartbeatTimeout is how long a member may go without a
	// successful probe before ExpireStale marks it down. Default 3s.
	HeartbeatTimeout time.Duration
	// SweepInterval is the detector/repair cadence. Default 500ms.
	SweepInterval time.Duration
	// ReplaceAfter is the anti-flap grace: how long a range stays
	// degraded before a brand-new replica is recruited, and how long a
	// down member may stay in a replica group before being replaced. A
	// former member that returns within the grace rejoins instead.
	// Default 10s.
	ReplaceAfter time.Duration
}

// repairParallelism bounds concurrently running repair re-replications
// (each is additionally bounded by the migration manager's own
// semaphore).
const repairParallelism = 2

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 500 * time.Millisecond
	}
	if c.ReplaceAfter <= 0 {
		c.ReplaceAfter = 10 * time.Second
	}
	return c
}

// EventKind labels a repair phase event.
type EventKind string

// Event kinds, in rough lifecycle order.
const (
	EventNodeDown     EventKind = "node-down"
	EventNodeUp       EventKind = "node-up"
	EventFailover     EventKind = "failover"
	EventDemote       EventKind = "demote"
	EventUnavailable  EventKind = "unavailable"
	EventRepairStart  EventKind = "repair-start"
	EventRepairDone   EventKind = "repair-done"
	EventRepairFailed EventKind = "repair-failed"
)

// Event is one observability callback from the repair loop.
type Event struct {
	Kind      EventKind
	Node      string // the node the event concerns, where meaningful
	Namespace string
	Start     []byte
	End       []byte
	Replicas  []string // the replica set the event installed or targets
	Err       error
}

// Stats counts repair activity across the manager's lifetime.
type Stats struct {
	Sweeps            int64
	NodesDown         int64 // down transitions observed
	NodesUp           int64 // up transitions observed
	Failovers         int64 // primary promotions
	Demotions         int64 // stale returned replicas removed pending re-add
	RepairsStarted    int64
	RepairsDone       int64
	RepairsFailed     int64
	Rejoins           int64 // repairs that re-added a returned former member
	RangesUnavailable int   // gauge: ranges with no live replica, last sweep
	UnderReplicated   int   // gauge: ranges below target RF, last sweep
	PendingJobs       int   // repair jobs journaled as in flight
}

// Manager is the self-healing control loop. Create with NewManager and
// call Sweep every SweepInterval: the coordinator's background driver
// does, and tests and operator tooling call it directly. Safe for
// concurrent use.
type Manager struct {
	cfg        Config
	clk        clock.Clock
	dir        *cluster.Directory
	transport  rpc.Transport
	router     *partition.Router
	migrations *migration.Manager
	pump       *replication.Pump
	rf         int

	// OnEvent, when set (before the first Sweep), receives one Event
	// per phase transition, synchronously on the sweeping or repairing
	// goroutine.
	OnEvent func(Event)

	sweepMu sync.Mutex // serialises sweeps

	mu     sync.Mutex
	nodes  map[string]*nodeState  // directory member ID -> what the sweeps saw
	ranges map[string]*rangeState // range key -> bookkeeping of a degraded range
	jobs   map[string]bool        // range key -> repair job in flight

	sem chan struct{} // bounds running repair jobs

	sweeps         atomic.Int64
	nodesDown      atomic.Int64
	nodesUp        atomic.Int64
	failovers      atomic.Int64
	demotions      atomic.Int64
	repairsStarted atomic.Int64
	repairsDone    atomic.Int64
	repairsFailed  atomic.Int64
	rejoins        atomic.Int64
	unavailGauge   atomic.Int64
	underGauge     atomic.Int64
}

// nodeState is what the sweeps observed of one directory member.
type nodeState struct {
	status    cluster.Status
	downSince time.Time // when it was last observed going down
	dropMark  int64     // pump drop counter at first sight, then when last observed up
}

// rangeState is the bookkeeping of one range that is not fully live at
// the target RF.
type rangeState struct {
	lost       []string  // former members, preferred for rejoin
	underSince time.Time // when it was first seen short; zero if it is not
	unavail    bool      // its no-live-replica event was emitted
}

// NewManager returns a repair manager over the given cluster plumbing.
// rf is the target replication factor (clamped per range to the number
// of serving nodes).
func NewManager(cfg Config, clk clock.Clock, dir *cluster.Directory, transport rpc.Transport, router *partition.Router, migrations *migration.Manager, pump *replication.Pump, rf int) *Manager {
	cfg = cfg.withDefaults()
	if rf < 1 {
		rf = 1
	}
	return &Manager{
		cfg:        cfg,
		clk:        clk,
		dir:        dir,
		transport:  transport,
		router:     router,
		migrations: migrations,
		pump:       pump,
		rf:         rf,
		nodes:      make(map[string]*nodeState),
		ranges:     make(map[string]*rangeState),
		jobs:       make(map[string]bool),
		sem:        make(chan struct{}, repairParallelism),
	}
}

// SweepInterval is how long the background driver waits between
// sweeps.
func (m *Manager) SweepInterval() time.Duration { return m.cfg.SweepInterval }

// Sweep runs failure detection, then one walk over every range:
// demote, fail over, repair. Probing, expiry, membership events,
// demotions and failover flips happen within the call; the repair jobs
// it decides on, and a retry of journaled teardowns when a node
// returned, are returned for the caller to run — on goroutines of its
// own (the background driver) or one after another before the next
// Sweep (RepairNow, tests). Sweep starts no goroutine that outlives
// it, so a test driving it on a virtual clock observes deterministic
// behavior. Every returned job must be run: a range's job stays in
// flight, and no other is started for it, until its job has run.
func (m *Manager) Sweep() (jobs []func()) {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	m.sweeps.Add(1)
	m.probe()
	m.dir.ExpireStale(m.cfg.HeartbeatTimeout)
	returned, stale := m.observeMembership()
	if len(returned) > 0 {
		// A returned node may hold ranges whose teardown was journaled
		// while it was unreachable.
		jobs = append(jobs, func() { m.migrations.RetryCleanups() })
	}
	rf := min(m.rf, len(m.dir.Up()))
	probes := make(map[string]uint64) // freshness probe memo for this sweep
	var unavailable, under int
	for _, ns := range m.router.Namespaces() {
		pm, ok := m.router.Map(ns)
		if !ok {
			continue
		}
		for _, rng := range pm.Ranges() {
			rk := rangeKey(ns, rng.Start)
			rng = m.demote(ns, rk, pm, rng, stale)
			if len(rng.Replicas) < rf {
				under++
			}
			if rng, ok = m.failover(ns, rk, pm, rng, probes); !ok {
				unavailable++
				continue
			}
			if target, _ := m.reconcileTarget(rk, rng); target == nil || slices.Equal(target, rng.Replicas) {
				continue
			}
			m.mu.Lock()
			busy := m.jobs[rk]
			m.jobs[rk] = true
			m.mu.Unlock()
			if !busy {
				jobs = append(jobs, func() { m.runJob(ns, pm, rk, rng.Start) })
			}
		}
	}
	m.unavailGauge.Store(int64(unavailable))
	m.underGauge.Store(int64(under))
	return jobs
}

// Stats returns a snapshot of repair counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	pending := len(m.jobs)
	m.mu.Unlock()
	return Stats{
		Sweeps:            m.sweeps.Load(),
		NodesDown:         m.nodesDown.Load(),
		NodesUp:           m.nodesUp.Load(),
		Failovers:         m.failovers.Load(),
		Demotions:         m.demotions.Load(),
		RepairsStarted:    m.repairsStarted.Load(),
		RepairsDone:       m.repairsDone.Load(),
		RepairsFailed:     m.repairsFailed.Load(),
		Rejoins:           m.rejoins.Load(),
		RangesUnavailable: int(m.unavailGauge.Load()),
		UnderReplicated:   int(m.underGauge.Load()),
		PendingJobs:       pending,
	}
}

// Describe renders the manager's state for operator tooling
// (scads-ctl repairs).
func (m *Manager) Describe() string {
	st := m.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "sweeps=%d nodes-down=%d nodes-up=%d failovers=%d demotions=%d\n",
		st.Sweeps, st.NodesDown, st.NodesUp, st.Failovers, st.Demotions)
	fmt.Fprintf(&b, "repairs: started=%d done=%d failed=%d rejoins=%d pending-jobs=%d\n",
		st.RepairsStarted, st.RepairsDone, st.RepairsFailed, st.Rejoins, st.PendingJobs)
	fmt.Fprintf(&b, "ranges: unavailable=%d under-replicated=%d\n",
		st.RangesUnavailable, st.UnderReplicated)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rk := range slices.Sorted(maps.Keys(m.jobs)) {
		ns, start := splitRangeKey(rk)
		fmt.Fprintf(&b, "job: %s start=%q\n", ns, start)
	}
	for _, rk := range slices.Sorted(maps.Keys(m.ranges)) {
		if lost := m.ranges[rk].lost; len(lost) > 0 {
			ns, start := splitRangeKey(rk)
			fmt.Fprintf(&b, "awaiting-rejoin: %s start=%q lost=%v\n", ns, start, slices.Sorted(slices.Values(lost)))
		}
	}
	return b.String()
}

// --- detection ---

// probe pings every directory member in parallel and heartbeats the
// responsive ones. This is an active failure detector: it needs no
// cooperation from the nodes beyond answering ping, works identically
// over the in-process and TCP transports, and doubles as resurrection
// — a down member that answers is marked up again by the heartbeat.
func (m *Manager) probe() {
	members := m.dir.Members()
	var wg sync.WaitGroup
	for _, mem := range members {
		wg.Add(1)
		go func(mem cluster.Member) {
			defer wg.Done()
			resp, err := m.transport.Call(mem.Addr, rpc.Request{Method: rpc.MethodPing})
			if err == nil && resp.Error() == nil {
				m.dir.Heartbeat(mem.ID)
			}
		}(mem)
	}
	wg.Wait()
}

// observeMembership diffs member statuses against the previous sweep,
// emitting node-down/node-up events. It returns the members that
// transitioned down→up, and every *serving* member that has become
// irrecoverably stale — the pump abandoned deliveries to it. The
// staleness audit runs every sweep, not just on a down→up transition:
// a replica whose replication link is severed while it still answers
// pings (an asymmetric partition) accumulates drops without ever
// leaving the up state, and must be demoted and rebuilt all the same —
// otherwise a later failover onto it would permanently lose the
// dropped acknowledged writes. Down members are never demoted (a dead
// tail member is failover's last-resort copy); their drop mark is
// frozen while they are away, so the evidence survives until the
// return sweep and the rebuild happens then.
func (m *Manager) observeMembership() (returned, stale []string) {
	now := m.clk.Now()
	members := m.dir.Members()
	var events []Event
	m.mu.Lock()
	seen := make(map[string]bool, len(members))
	for _, mem := range members {
		seen[mem.ID] = true
		drops := m.pump.DroppedTo(mem.ID)
		n, knew := m.nodes[mem.ID]
		if !knew {
			n = &nodeState{status: mem.Status, dropMark: drops}
			m.nodes[mem.ID] = n
		}
		if mem.Status == cluster.StatusUp {
			if drops != n.dropMark {
				stale = append(stale, mem.ID)
			}
			n.dropMark = drops
		}
		prev := n.status
		n.status = mem.Status
		switch {
		case knew && prev == mem.Status:
		case mem.Status == cluster.StatusDown:
			// A first sighting already down (crashed before any sweep
			// recorded it as up) is still a down observation — count it
			// and tell listeners, or a crash in the sweep loop's startup
			// window would be acted on without ever being reported.
			n.downSince = now
			m.nodesDown.Add(1)
			events = append(events, Event{Kind: EventNodeDown, Node: mem.ID})
		case mem.Status == cluster.StatusUp && prev == cluster.StatusDown:
			m.nodesUp.Add(1)
			returned = append(returned, mem.ID)
			events = append(events, Event{Kind: EventNodeUp, Node: mem.ID})
		}
	}
	for id := range m.nodes {
		if !seen[id] {
			delete(m.nodes, id)
		}
	}
	m.mu.Unlock()
	for _, ev := range events {
		m.emit(ev)
	}
	return returned, stale
}

// --- the walk ---

// demote removes the stale nodes that serve rng as secondaries and
// remembers each as a lost member, so the repair rule re-adds it at
// once — via the migration protocol's truncate + snapshot + delta,
// which rebuilds the copy instead of merging over it. It returns the
// range as the demotions left it.
func (m *Manager) demote(ns, rk string, pm *partition.Map, rng partition.Range, stale []string) partition.Range {
	for _, id := range stale {
		i := slices.Index(rng.Replicas, id)
		if i <= 0 {
			continue // not a member, or the authoritative primary
		}
		target := slices.Delete(slices.Clone(rng.Replicas), i, i+1)
		// Never leave a range with no live member: serving stale data
		// beats serving nothing (§3.3.1's availability arbitration). A
		// lost flip races a reconfiguration; the next sweep re-derives.
		if !slices.ContainsFunc(target, m.isUp) {
			continue
		}
		epoch, err := pm.CompareAndSetReplicas(rng.Start, rng.Epoch, target)
		if err != nil {
			continue
		}
		rng.Replicas, rng.Epoch = target, epoch
		m.mu.Lock()
		rs := m.rangeLocked(rk)
		if !slices.Contains(rs.lost, id) {
			rs.lost = append(rs.lost, id)
		}
		m.mu.Unlock()
		m.demotions.Add(1)
		m.emit(Event{Kind: EventDemote, Node: id, Namespace: ns, Start: rng.Start, End: rng.End, Replicas: target})
	}
	return rng
}

// failover promotes the freshest live replica of rng if its primary is
// down. Pure metadata: one compare-and-set flip. Down members are kept
// at the tail of the group, not dropped: they still hold a copy (the
// dead ex-primary in fact holds the freshest one), so if the promoted
// survivor also dies and a dead member returns, a later sweep can
// promote it instead of declaring the range permanently unavailable.
// Replacing long-dead tail members is the repair rule's job, after the
// grace; convergence of a briefly-dead one is the pump's (parked
// deliveries flush on return, and abandoned ones trigger the
// demote-and-rebuild audit). It returns the range as it left it, and
// false if the range has no live replica.
func (m *Manager) failover(ns, rk string, pm *partition.Map, rng partition.Range, probes map[string]uint64) (partition.Range, bool) {
	if !m.isUp(rng.Replicas[0]) {
		var live, dead []string
		for _, id := range rng.Replicas {
			if m.isUp(id) {
				live = append(live, id)
			} else {
				dead = append(dead, id)
			}
		}
		if len(live) == 0 {
			m.mu.Lock()
			rs := m.rangeLocked(rk)
			first := !rs.unavail
			rs.unavail = true
			m.mu.Unlock()
			if first {
				m.emit(Event{Kind: EventUnavailable, Node: rng.Replicas[0], Namespace: ns, Start: rng.Start, End: rng.End, Replicas: rng.Replicas})
			}
			return rng, false
		}
		ordered := append(m.rankByFreshness(ns, live, probes), dead...)
		epoch, err := pm.CompareAndSetReplicas(rng.Start, rng.Epoch, ordered)
		if err != nil {
			return rng, true // racing flip; re-derived next sweep
		}
		m.failovers.Add(1)
		m.emit(Event{Kind: EventFailover, Node: rng.Replicas[0], Namespace: ns, Start: rng.Start, End: rng.End, Replicas: ordered})
		rng.Replicas, rng.Epoch = ordered, epoch
	}
	m.mu.Lock()
	if rs := m.ranges[rk]; rs != nil {
		rs.unavail = false
	}
	m.mu.Unlock()
	return rng, true
}

// rankByFreshness orders candidate replicas freshest first: highest
// probed max record version (coordinator HLC stamps — globally
// comparable), then lowest tracked replication staleness, then the
// existing order. Probe failures rank the candidate last. probes
// memoizes the (namespace, node) probe across one sweep — the value
// is namespace-wide, so a crashed node that was primary of many
// ranges costs one RPC per candidate, not one per range.
//
// Granularity caveat: both signals are namespace-wide, not per-range —
// a candidate kept hot by writes to *other* ranges of the namespace
// can outrank one holding newer data for the failing range.
// Correctness never depends on the pick (the pump's queued deliveries
// converge whichever survivor is promoted, and acknowledged data lives
// on at least the surviving enqueue targets); the ranking only
// shortens the stale-read window, so the approximation is acceptable
// until storage tracks per-range versions.
func (m *Manager) rankByFreshness(ns string, ids []string, probes map[string]uint64) []string {
	out := append([]string(nil), ids...)
	if len(out) < 2 {
		return out
	}
	type rank struct {
		version uint64
		stale   time.Duration
	}
	ranks := make(map[string]rank, len(out))
	tracker := m.pump.Tracker()
	for _, id := range out {
		r := rank{stale: tracker.Staleness(ns, id)}
		pk := ns + "\x00" + id
		if v, ok := probes[pk]; ok {
			r.version = v
		} else if mem, ok := m.dir.Get(id); ok {
			resp, err := m.transport.Call(mem.Addr, rpc.Request{
				Method: rpc.MethodRangeSnapshot, Namespace: ns, Limit: -1,
			})
			if err == nil && resp.Error() == nil {
				r.version = resp.Version
			}
			probes[pk] = r.version
		}
		ranks[id] = r
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := ranks[out[i]], ranks[out[j]]
		if a.version != b.version {
			return a.version > b.version
		}
		return a.stale < b.stale
	})
	return out
}

// --- the repair rule ---

// runJob executes one journaled repair. Its plan asks reconcileTarget
// again under the range's migration lock, so a node that returned
// since the job was scheduled re-targets the repair at itself — the
// rejoin path — and a planned move of the range in flight is waited
// out, never raced; the migration manager then moves the range. A plan
// that keeps the replicas as they are counts as no repair.
func (m *Manager) runJob(ns string, pm *partition.Map, rk string, key []byte) {
	m.sem <- struct{}{}
	defer func() { <-m.sem }()
	defer func() {
		m.mu.Lock()
		delete(m.jobs, rk)
		m.mu.Unlock()
	}()

	var rng partition.Range
	var target, rejoined []string
	err := m.migrations.MoveRange(pm, ns, key, func(cur partition.Range) ([]string, error) {
		rng = cur
		if target, rejoined = m.reconcileTarget(rk, cur); target == nil {
			target = cur.Replicas
		}
		if !slices.Equal(target, cur.Replicas) {
			m.repairsStarted.Add(1)
			m.emit(Event{Kind: EventRepairStart, Namespace: ns, Start: cur.Start, End: cur.End, Replicas: target})
		}
		return target, nil
	})
	if slices.Equal(target, rng.Replicas) {
		return
	}
	if err != nil {
		m.repairsFailed.Add(1)
		m.emit(Event{Kind: EventRepairFailed, Namespace: ns, Start: rng.Start, End: rng.End, Replicas: target, Err: err})
		return
	}
	m.repairsDone.Add(1)
	m.rejoins.Add(int64(len(rejoined)))
	m.emit(Event{Kind: EventRepairDone, Namespace: ns, Start: rng.Start, End: rng.End, Replicas: target})
}

// reconcileTarget is the one repair rule: the replica set rng should
// have. The sweep asks it whether a range needs a job, and the job's
// plan asks it, under the range's lock, what to install. Every live
// member, and every down member within ReplaceAfter, keeps its slot,
// so a failover's freshest-first primary stays primary. Additions up
// to the target RF (clamped to Directory.Up) follow: returned former
// members at once (rejoined), then the least-loaded serving spares —
// but a brand-new spare only once the range has been short for
// ReplaceAfter, or to replace a member past its grace. Both are drawn
// from Directory.Up, so a draining node is never added. A member past
// its grace (observed down for ReplaceAfter, or gone from the
// directory) is dropped only when a replacement takes its place: with
// no spare, its copy (torn down on return) is still the range's only
// other one should the survivors fail too. So a range with nothing to
// add or drop gets its current replicas back. Returns nil while the
// primary is down: that is failover's case.
//
// The range's bookkeeping lives here too: it is forgotten once the
// range is fully live at the true (unclamped) RF. A range shrunk while
// the cluster is short of nodes keeps its lost members until then —
// that memory is what lets an old primary rejoin instead of being
// treated as a spare.
func (m *Manager) reconcileTarget(rk string, rng partition.Range) (target, rejoined []string) {
	if !m.isUp(rng.Replicas[0]) {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(rng.Replicas) >= m.rf && !slices.ContainsFunc(rng.Replicas, func(id string) bool { return !m.isUp(id) }) {
		delete(m.ranges, rk)
		return rng.Replicas, nil
	}
	now := m.clk.Now()
	up := m.dir.Up()
	rf := min(m.rf, len(up))
	keep := make([]bool, len(rng.Replicas))
	kept := 0
	for i, id := range rng.Replicas {
		if n := m.nodes[id]; !m.isUp(id) && (n == nil || n.status == cluster.StatusDown && now.Sub(n.downSince) >= m.cfg.ReplaceAfter) {
			continue
		}
		keep[i] = true
		kept++
	}
	rs := m.rangeLocked(rk)
	rs.lost = slices.DeleteFunc(rs.lost, func(id string) bool { return slices.Contains(rng.Replicas, id) })
	if kept >= rf {
		rs.underSince = time.Time{}
	} else if rs.underSince.IsZero() {
		rs.underSince = now
	}
	var add []string
	for _, id := range rs.lost {
		if kept+len(add) < rf && slices.Contains(up, id) {
			add = append(add, id)
		}
	}
	rejoined = slices.Clip(add)
	if need := rf - kept - len(add); need > 0 && (kept < len(rng.Replicas) || now.Sub(rs.underSince) >= m.cfg.ReplaceAfter) {
		spares := m.router.Spares(up, append(slices.Clone(rng.Replicas), add...))
		add = append(add, spares[:min(len(spares), need)]...)
	}
	retain := m.rf - kept - len(add) // members past their grace still needed
	for i, id := range rng.Replicas {
		if !keep[i] {
			if retain <= 0 {
				continue
			}
			retain--
		}
		target = append(target, id)
	}
	return append(target, add...), rejoined
}

// --- helpers ---

// rangeLocked returns rk's bookkeeping, creating it. Callers hold m.mu.
func (m *Manager) rangeLocked(rk string) *rangeState {
	rs := m.ranges[rk]
	if rs == nil {
		rs = &rangeState{}
		m.ranges[rk] = rs
	}
	return rs
}

func (m *Manager) isUp(id string) bool {
	_, ok := m.dir.Addr(id)
	return ok
}

func (m *Manager) emit(ev Event) {
	if h := m.OnEvent; h != nil {
		h(ev)
	}
}

func rangeKey(ns string, start []byte) string {
	return ns + "\x00" + string(start)
}

func splitRangeKey(rk string) (ns, start string) {
	if i := strings.IndexByte(rk, 0); i >= 0 {
		return rk[:i], rk[i+1:]
	}
	return rk, ""
}
