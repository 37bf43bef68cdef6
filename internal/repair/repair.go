// Package repair implements the self-healing crash-recovery loop: the
// missing half of the SCADS director's promise to keep data served
// "despite node failures".
//
// A Manager sweeps on a clock and, each sweep, walks three passes:
//
//  1. Failure detection. Every directory member is probed with a ping;
//     responsive members heartbeat into the directory, then
//     Directory.ExpireStale marks silent ones down. Status transitions
//     become node-down / node-up events. A node that returns is
//     compared against the replication pump's per-target drop counter:
//     if no delivery to it was abandoned while it was away, its parked
//     updates will still converge and it rejoins as-is; otherwise it
//     is irrecoverably stale and is demoted from every replica group
//     it serves as a secondary, to be re-added through the migration
//     protocol's truncate → snapshot → delta catch-up (compaction
//     garbage-collects tombstones, so merging over a stale copy could
//     resurrect deletes — a returned stale replica must be rebuilt,
//     not patched).
//
//  2. Primary failover. A range whose primary is down but which has a
//     live replica is flipped — atomically, via the partition map's
//     compare-and-set — to the surviving replicas ordered freshest
//     first. Freshness ranks each candidate by its probed maximum
//     accepted record version (a coordinator HLC stamp, comparable
//     across nodes) and breaks ties with the replication tracker's
//     staleness bound. Writes blocked on the dead primary are already
//     spinning in the coordinator's down-retry loop; the first retry
//     after the flip lands on the promoted replica. Nothing is copied:
//     failover is a metadata operation and completes in one sweep.
//
//  3. Replication-factor repair. Ranges left under-replicated (by a
//     failover, a demotion, or an operator action) are re-replicated
//     through migration.Manager — the donor is any live replica, the
//     fenced handoff guarantees the new copy is complete — with
//     bounded parallelism and an idempotent per-range job journal (a
//     sweep never double-schedules a range, and a failed job is simply
//     rescheduled by a later sweep). Anti-flap hysteresis: a brand-new
//     replica is only recruited after the range has been degraded for
//     ReplaceAfter, but a *former* member that heartbeats back is
//     re-added immediately (its pending replacement job re-targets it
//     — the node "cancels its own repairs and rejoins"), catching up
//     through the usual snapshot/delta protocol.
//
// The loop is level-triggered: every pass re-derives its work from the
// current directory and partition maps, so races with concurrent
// migrations (both sides flip with compare-and-set) or with operator
// actions converge within a sweep or two instead of corrupting state.
package repair

import (
	"fmt"
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

// Manager is the self-healing control loop. Create with NewManager,
// drive with Run (background) or Sweep (deterministic tests and
// operator tooling). Safe for concurrent use.
type Manager struct {
	cfg        Config
	clk        clock.Clock
	dir        *cluster.Directory
	transport  rpc.Transport
	router     *partition.Router
	migrations *migration.Manager
	pump       *replication.Pump
	rf         int

	// OnEvent, when set (before Run), receives one Event per phase
	// transition, synchronously on the sweeping or repairing
	// goroutine.
	OnEvent func(Event)

	sweepMu sync.Mutex // serialises sweeps

	mu         sync.Mutex
	known      map[string]cluster.Status // last observed member status
	downSince  map[string]time.Time
	dropMark   map[string]int64           // pump drop counter at down transition
	lost       map[string]map[string]bool // range key -> former members preferred for rejoin
	underSince map[string]time.Time       // range key -> first observed degraded
	jobs       map[string]bool            // range key -> repair job in flight
	unavail    map[string]bool            // ranges currently without any live replica

	runMu  sync.Mutex
	stopCh chan struct{}
	loopWg sync.WaitGroup
	jobWg  sync.WaitGroup
	sem    chan struct{}

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
		known:      make(map[string]cluster.Status),
		downSince:  make(map[string]time.Time),
		dropMark:   make(map[string]int64),
		lost:       make(map[string]map[string]bool),
		underSince: make(map[string]time.Time),
		jobs:       make(map[string]bool),
		unavail:    make(map[string]bool),
		sem:        make(chan struct{}, repairParallelism),
	}
}

// Run starts the background sweep loop on the manager's clock. Safe to
// call once per Stop; redundant calls are no-ops.
func (m *Manager) Run() {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	if m.stopCh != nil {
		return
	}
	stop := make(chan struct{})
	m.stopCh = stop
	m.loopWg.Add(1)
	go func() {
		defer m.loopWg.Done()
		for {
			select {
			case <-stop:
				return
			case <-m.clk.After(m.cfg.SweepInterval):
			}
			select {
			case <-stop:
				return
			default:
			}
			m.Sweep()
		}
	}()
}

// Stop halts the background loop and waits for it and any in-flight
// repair jobs to finish.
func (m *Manager) Stop() {
	m.runMu.Lock()
	if m.stopCh != nil {
		close(m.stopCh)
		m.stopCh = nil
	}
	m.runMu.Unlock()
	m.loopWg.Wait()
	m.jobWg.Wait()
}

// Sweep runs one full detector + failover + repair pass. Repair jobs
// it schedules run asynchronously (see Quiesce); everything else —
// probing, expiry, membership events, failover flips, demotions — is
// synchronous, so a test driving Sweep on a fake clock observes
// deterministic detection behavior.
func (m *Manager) Sweep() {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	m.sweeps.Add(1)
	m.probe()
	m.dir.ExpireStale(m.cfg.HeartbeatTimeout)
	returned, stale := m.observeMembership()
	if len(returned) > 0 {
		// A returned node may hold ranges whose teardown was journaled
		// while it was unreachable; retry those in the background.
		m.jobWg.Add(1)
		go func() {
			defer m.jobWg.Done()
			m.migrations.RetryCleanups()
		}()
	}
	for _, id := range stale {
		m.demoteStale(id)
	}
	m.failoverPass()
	m.repairPass()
}

// Quiesce blocks until no repair job is in flight or timeout elapses,
// returning whether the manager went idle. Uses wall time: jobs run on
// real goroutines regardless of the configured clock.
func (m *Manager) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		idle := len(m.jobs) == 0
		m.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
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
	var keys []string
	for rk := range m.jobs {
		keys = append(keys, rk)
	}
	sort.Strings(keys)
	for _, rk := range keys {
		ns, start := splitRangeKey(rk)
		fmt.Fprintf(&b, "job: %s start=%q\n", ns, start)
	}
	keys = keys[:0]
	for rk, nodes := range m.lost {
		if len(nodes) > 0 {
			keys = append(keys, rk)
		}
	}
	sort.Strings(keys)
	for _, rk := range keys {
		ns, start := splitRangeKey(rk)
		ids := make([]string, 0, len(m.lost[rk]))
		for id := range m.lost[rk] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "awaiting-rejoin: %s start=%q lost=%v\n", ns, start, ids)
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
// tail member is the failover pass's last-resort copy); their drop
// mark is frozen while they are away, so the evidence survives until
// the return sweep and the rebuild happens then.
func (m *Manager) observeMembership() (returned, stale []string) {
	now := m.clk.Now()
	members := m.dir.Members()
	var events []Event
	m.mu.Lock()
	seen := make(map[string]bool, len(members))
	for _, mem := range members {
		seen[mem.ID] = true
		prev, knew := m.known[mem.ID]
		m.known[mem.ID] = mem.Status
		drops := m.pump.DroppedTo(mem.ID)
		mark, marked := m.dropMark[mem.ID]
		if mem.Status == cluster.StatusUp {
			if marked && drops != mark {
				stale = append(stale, mem.ID)
			}
			m.dropMark[mem.ID] = drops
		} else if !marked {
			m.dropMark[mem.ID] = drops
		}
		if !knew {
			if mem.Status == cluster.StatusDown {
				// First sighting and already down (crashed before any
				// sweep recorded it as up): that is still a down
				// observation — count it and tell listeners, or a
				// crash in the sweep loop's startup window would be
				// acted on (failover, repair) without ever being
				// reported.
				m.downSince[mem.ID] = now
				m.nodesDown.Add(1)
				events = append(events, Event{Kind: EventNodeDown, Node: mem.ID})
			}
			continue
		}
		if prev == mem.Status {
			continue
		}
		switch {
		case mem.Status == cluster.StatusDown:
			m.downSince[mem.ID] = now
			m.nodesDown.Add(1)
			events = append(events, Event{Kind: EventNodeDown, Node: mem.ID})
		case mem.Status == cluster.StatusUp && prev == cluster.StatusDown:
			delete(m.downSince, mem.ID)
			m.nodesUp.Add(1)
			returned = append(returned, mem.ID)
			events = append(events, Event{Kind: EventNodeUp, Node: mem.ID})
		}
	}
	for id := range m.known {
		if !seen[id] {
			delete(m.known, id)
			delete(m.downSince, id)
			delete(m.dropMark, id)
		}
	}
	m.mu.Unlock()
	for _, ev := range events {
		m.emit(ev)
	}
	return returned, stale
}

// demoteStale removes a returned-but-stale node from every replica
// group where it serves as a secondary (never from a primary slot: a
// primary is authoritative by definition). The removal is recorded as
// a lost membership, so the repair pass re-adds the node immediately
// — via the migration protocol's truncate + snapshot + delta, which
// rebuilds the copy instead of merging over it.
func (m *Manager) demoteStale(node string) {
	now := m.clk.Now()
	for _, ns := range m.router.Namespaces() {
		pm, ok := m.router.Map(ns)
		if !ok {
			continue
		}
		for _, rng := range pm.Ranges() {
			idx := slices.Index(rng.Replicas, node)
			if idx <= 0 {
				continue
			}
			target := slices.Delete(slices.Clone(rng.Replicas), idx, idx+1)
			if !slices.ContainsFunc(target, m.isUp) {
				// Never leave a range with no live member: serving
				// stale data beats serving nothing (§3.3.1's
				// availability arbitration).
				continue
			}
			if err := pm.CompareAndSetReplicas(rng.Start, rng.Replicas, target); err != nil {
				continue // racing reconfiguration; next sweep re-derives
			}
			rk := rangeKey(ns, rng.Start)
			m.mu.Lock()
			m.noteLostLocked(rk, node)
			if _, ok := m.underSince[rk]; !ok {
				m.underSince[rk] = now
			}
			m.mu.Unlock()
			m.demotions.Add(1)
			m.emit(Event{Kind: EventDemote, Node: node, Namespace: ns, Start: rng.Start, End: rng.End, Replicas: target})
		}
	}
}

// --- failover ---

// failoverPass promotes the freshest live replica of every range whose
// primary is down. Pure metadata: one compare-and-set flip per range.
// Down members are kept at the tail of the group, not dropped: they
// still hold a copy (the dead ex-primary in fact holds the freshest
// one), so if the promoted survivor also dies and a dead member
// returns, the next sweep can promote it instead of declaring the
// range permanently unavailable. Replacement of long-dead tail members
// is the repair pass's job, after the grace; convergence of a
// briefly-dead tail member is the pump's (parked deliveries flush on
// return, and abandoned ones trigger the demote-and-rebuild audit).
func (m *Manager) failoverPass() {
	probes := make(map[string]uint64) // freshness probe memo for this sweep
	unavailable := 0
	for _, ns := range m.router.Namespaces() {
		pm, ok := m.router.Map(ns)
		if !ok {
			continue
		}
		for _, rng := range pm.Ranges() {
			rk := rangeKey(ns, rng.Start)
			if m.isUp(rng.Replicas[0]) {
				m.mu.Lock()
				delete(m.unavail, rk)
				m.mu.Unlock()
				continue
			}
			var live, dead []string
			for _, id := range rng.Replicas {
				if m.isUp(id) {
					live = append(live, id)
				} else {
					dead = append(dead, id)
				}
			}
			if len(live) == 0 {
				unavailable++
				m.mu.Lock()
				first := !m.unavail[rk]
				m.unavail[rk] = true
				m.mu.Unlock()
				if first {
					m.emit(Event{Kind: EventUnavailable, Node: rng.Replicas[0], Namespace: ns, Start: rng.Start, End: rng.End, Replicas: rng.Replicas})
				}
				continue
			}
			ordered := append(m.rankByFreshness(ns, live, probes), dead...)
			if err := pm.CompareAndSetReplicas(rng.Start, rng.Replicas, ordered); err != nil {
				continue // racing flip; re-derived next sweep
			}
			m.mu.Lock()
			delete(m.unavail, rk)
			m.mu.Unlock()
			m.failovers.Add(1)
			m.emit(Event{Kind: EventFailover, Node: rng.Replicas[0], Namespace: ns, Start: rng.Start, End: rng.End, Replicas: ordered})
		}
	}
	m.unavailGauge.Store(int64(unavailable))
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

// --- RF repair ---

// repairPass schedules re-replication jobs for degraded ranges:
// under-replicated (below the target RF) or carrying a down member
// past the replacement grace. One journaled job per range; jobs run
// asynchronously under the parallelism bound.
func (m *Manager) repairPass() {
	now := m.clk.Now()
	up := m.dir.Up()
	rf := min(m.rf, len(up))
	under := 0
	for _, ns := range m.router.Namespaces() {
		pm, ok := m.router.Map(ns)
		if !ok {
			continue
		}
		for _, rng := range pm.Ranges() {
			rk := rangeKey(ns, rng.Start)
			if rf < 1 {
				continue
			}
			var liveCount int
			var pastGrace bool
			m.mu.Lock()
			for _, id := range rng.Replicas {
				if m.isUp(id) {
					liveCount++
					continue
				}
				ds, ok := m.downSince[id]
				if !ok {
					ds = now
					m.downSince[id] = ds
				}
				if now.Sub(ds) >= m.cfg.ReplaceAfter {
					pastGrace = true
				}
			}
			needAdd := len(rng.Replicas) < rf
			if needAdd {
				under++
			}
			if liveCount == 0 || (!needAdd && !pastGrace) {
				// Forget degraded-state bookkeeping only at the true
				// (unclamped) target RF: a range shrunk by failover is
				// "satisfied" while the cluster is short of nodes, but
				// its lost-member memory must survive until the range
				// is fully replicated again — it is what lets the old
				// primary rejoin instead of being treated as a spare.
				if liveCount == len(rng.Replicas) && len(rng.Replicas) >= m.rf {
					delete(m.underSince, rk)
					delete(m.lost, rk)
				}
				m.mu.Unlock()
				continue
			}
			if needAdd && !pastGrace {
				us, ok := m.underSince[rk]
				if !ok {
					us = now
					m.underSince[rk] = us
				}
				// Anti-flap: recruit a brand-new replica only after the
				// grace; a returned former member rejoins immediately.
				if !m.hasRejoinCandidateLocked(rk, rng.Replicas, up) && now.Sub(us) < m.cfg.ReplaceAfter {
					m.mu.Unlock()
					continue
				}
			}
			if m.jobs[rk] {
				m.mu.Unlock()
				continue
			}
			m.jobs[rk] = true
			m.mu.Unlock()
			m.jobWg.Add(1)
			go m.runJob(ns, pm, rk, rng.Start)
		}
	}
	m.underGauge.Store(int64(under))
}

// runJob executes one journaled repair: its plan re-derives the target
// replica set under the range's migration lock (so a node that
// returned since the job was scheduled re-targets the repair at itself
// — the rejoin path — and a planned move of the range in flight is
// waited out, never raced), and the migration manager moves the range.
// A plan that keeps the replicas as they are counts as no repair.
func (m *Manager) runJob(ns string, pm *partition.Map, rk string, key []byte) {
	defer m.jobWg.Done()
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
		if target, rejoined = m.reconcileTarget(ns, rk, cur); target == nil {
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
	m.mu.Lock()
	if lost := m.lost[rk]; lost != nil {
		for _, id := range target {
			delete(lost, id)
		}
		if len(lost) == 0 {
			delete(m.lost, rk)
		}
	}
	delete(m.underSince, rk)
	m.mu.Unlock()
	m.emit(Event{Kind: EventRepairDone, Namespace: ns, Start: rng.Start, End: rng.End, Replicas: target})
}

// reconcileTarget computes the replica set a repair should install:
// live members first (preserving order, so a failover's
// freshest-first primary stays primary), down members still within
// grace kept at the tail, then additions up to the target RF —
// preferring returned former members (rejoins), then the least-loaded
// serving spares — both drawn from Directory.Up, so a draining node is
// never added. Returns nil when the range has no live member.
func (m *Manager) reconcileTarget(ns, rk string, rng partition.Range) (target, rejoined []string) {
	now := m.clk.Now()
	m.mu.Lock()
	lost := make([]string, 0, len(m.lost[rk]))
	for id := range m.lost[rk] {
		lost = append(lost, id)
	}
	sort.Strings(lost)
	var live, inGrace []string
	for _, id := range rng.Replicas {
		if m.isUp(id) {
			live = append(live, id)
			continue
		}
		ds, ok := m.downSince[id]
		if ok && now.Sub(ds) < m.cfg.ReplaceAfter {
			inGrace = append(inGrace, id)
		}
	}
	m.mu.Unlock()
	if len(live) == 0 {
		return nil, nil
	}
	target = append(append([]string(nil), live...), inGrace...)
	up := m.dir.Up()
	rf := min(m.rf, len(up))
	for _, id := range lost {
		if len(target) >= rf {
			break
		}
		if slices.Contains(up, id) && !slices.Contains(target, id) {
			target = append(target, id)
			rejoined = append(rejoined, id)
		}
	}
	if len(target) < rf {
		spares := m.router.Spares(up, target)
		target = append(target, spares[:min(len(spares), rf-len(target))]...)
	}
	// A down member past its grace is dropped only when a replacement
	// actually backfilled: if the cluster has no spare, keeping the
	// (stale, torn down on return) copy in the group is still better
	// than journaling its destruction — it remains the range's only
	// other copy should the survivors fail too.
	for _, id := range rng.Replicas {
		if len(target) >= m.rf {
			break
		}
		if !slices.Contains(target, id) && !m.isUp(id) {
			target = append(target, id)
		}
	}
	return target, rejoined
}

// --- helpers ---

func (m *Manager) hasRejoinCandidateLocked(rk string, current, up []string) bool {
	for id := range m.lost[rk] {
		if !slices.Contains(current, id) && slices.Contains(up, id) {
			return true
		}
	}
	return false
}

func (m *Manager) noteLostLocked(rk, node string) {
	set := m.lost[rk]
	if set == nil {
		set = make(map[string]bool)
		m.lost[rk] = set
	}
	set[node] = true
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
