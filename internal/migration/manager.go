// Package migration implements lossless online range migration: the
// data-movement primitive behind every rebalance, spread, decommission
// and elastic scale action.
//
// The old primitive copied a range's pages from the donor and then
// flipped routing — every write acknowledged on the donor during the
// copy window was silently dropped. This package replaces it with the
// classic three-phase handoff:
//
//  1. Snapshot: page the range's records (tombstones included) from
//     the donor to every catch-up target, keeping the donor's apply
//     watermark captured before the first page.
//  2. Delta catch-up: repeatedly fetch "everything applied after the
//     watermark" and forward it, advancing the watermark, until a
//     round comes back small (the targets are nearly caught up).
//  3. Fence + flip: one call installs a write fence on the donor
//     primary (writes bounce with rpc.ErrFenced; coordinators re-route
//     and retry) and answers the range's final delta, which goes to
//     the targets; then flip the partition map and lift the fence from
//     nodes that keep the range. The fence pause is one round trip
//     carrying one small delta. The flip publishes a new replica set,
//     and a replication update still pending for the range is owed to
//     every member of it (replication.Pump reads the map), so a write
//     the coordinator acknowledged before the handoff reaches the new
//     members whether or not the final delta carried it.
//
// Nodes that lose the range keep their fence forever (a straggling
// in-flight write routed before the flip must bounce to the new
// primary, not land invisibly on the old one) and have their copy
// tombstoned. Cleanup failures are journaled and retried idempotently
// — a migration that dies after the routing flip leaves a pending
// cleanup, never a data-loss window.
package migration

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"scads/internal/cluster"
	"scads/internal/partition"
	"scads/internal/record"
	"scads/internal/rpc"
)

// Phase identifies a step of the migration state machine, reported
// through Manager.OnPhase.
type Phase string

// Migration phases in execution order.
const (
	PhaseSnapshot Phase = "snapshot"
	PhaseDelta    Phase = "delta"
	PhaseFence    Phase = "fence"
	PhaseFlip     Phase = "flip"
	PhaseCleanup  Phase = "cleanup"
	PhaseDone     Phase = "done"
)

// Event is one observability callback: a phase is starting (or, for
// PhaseDone/PhaseCleanup with Err set, has finished) for the range.
type Event struct {
	Phase     Phase
	Namespace string
	Start     []byte
	End       []byte
	Target    []string
	Records   int   // records shipped by the phase, where meaningful
	Err       error // cleanup/terminal failure, when any
}

// Stats counts migration activity across the manager's lifetime.
type Stats struct {
	Started         int64
	Succeeded       int64
	Failed          int64
	SnapshotRecords int64 // records shipped by snapshot pages
	DeltaRecords    int64 // records shipped by delta rounds and fence answers
	DeltaRounds     int64
	Resnapshots     int64 // snapshot restarts after a delta-baseline gap
	FencePauses     int64
	CleanupRetries  int64
	CleanupPending  int // nodes still awaiting range teardown
}

// Manager drives online range migrations with bounded parallelism.
// Tuning fields follow the package convention of replication.Pump:
// set them before the first migration.
type Manager struct {
	transport rpc.Transport
	dir       *cluster.Directory
	// maps resolves a namespace to its current partition map. Cleanup
	// retries consult it so a journaled teardown can never fence and
	// truncate a range the node has since regained — ownership wins
	// over a stale journal entry.
	maps func(namespace string) (*partition.Map, bool)

	// OnPhase, when set, receives one Event per phase transition
	// (synchronously, on the migrating goroutine).
	OnPhase func(Event)

	sem chan struct{} // bounds concurrently running migrations

	mu       sync.Mutex
	inflight map[string]*rangeLock // per-range serialisation
	pending  map[string]*cleanup   // ns+start -> nodes awaiting teardown

	started         atomic.Int64
	succeeded       atomic.Int64
	failed          atomic.Int64
	snapshotRecords atomic.Int64
	deltaRecords    atomic.Int64
	deltaRoundsRun  atomic.Int64
	resnapshots     atomic.Int64
	fencePauses     atomic.Int64
	cleanupRetries  atomic.Int64
}

type rangeLock struct {
	ch   chan struct{} // buffered(1): holds the lock token
	refs int
}

type cleanup struct {
	namespace  string
	start, end []byte
	nodes      map[string]bool
}

// NewManager returns a manager calling through transport, resolving
// node addresses through dir and namespaces' partition maps through
// maps (the router's Map method satisfies it). parallelism bounds
// concurrently running migrations and must be at least 1.
func NewManager(transport rpc.Transport, dir *cluster.Directory, maps func(namespace string) (*partition.Map, bool), parallelism int) *Manager {
	return &Manager{
		transport: transport,
		dir:       dir,
		maps:      maps,
		sem:       make(chan struct{}, parallelism),
		inflight:  make(map[string]*rangeLock),
		pending:   make(map[string]*cleanup),
	}
}

// Stats returns a snapshot of migration counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	pending := 0
	for _, c := range m.pending {
		pending += len(c.nodes)
	}
	m.mu.Unlock()
	return Stats{
		Started:         m.started.Load(),
		Succeeded:       m.succeeded.Load(),
		Failed:          m.failed.Load(),
		SnapshotRecords: m.snapshotRecords.Load(),
		DeltaRecords:    m.deltaRecords.Load(),
		DeltaRounds:     m.deltaRoundsRun.Load(),
		Resnapshots:     m.resnapshots.Load(),
		FencePauses:     m.fencePauses.Load(),
		CleanupRetries:  m.cleanupRetries.Load(),
		CleanupPending:  pending,
	}
}

// ErrTargetDown refuses a move whose target adds a node that is not
// in Directory.Up: down, booting, unknown or draining — a plan made
// before the directory changed. A catch-up target found not serving
// once the move has begun fails the move with the same error.
var ErrTargetDown = errors.New("migration: target node is not up")

// MoveRange migrates the range of pm containing key to the replica
// group plan returns (target[0] becomes the primary), losslessly with
// respect to writes acknowledged at any point: snapshot, delta
// catch-up, a write fence that answers the final delta, routing flip,
// teardown. plan runs in a migration slot under the range's lock, on
// the range as it stands then: every mover of a range — repair,
// spread, decommission, rebalance, an operator — plans against the
// state its move starts from. An empty target is
// partition.ErrNeedReplicas; a target equal to the current set moves
// nothing, counts nothing and only retries the range's pending
// teardown; a target adding a node not in Directory.Up is
// ErrTargetDown. Migrations of distinct ranges run in parallel up to
// the manager's parallelism bound, migrations of the same range
// serialise.
func (m *Manager) MoveRange(pm *partition.Map, namespace string, key []byte, plan func(partition.Range) ([]string, error)) error {
	m.sem <- struct{}{}
	defer func() { <-m.sem }()
	locked := pm.Lookup(key).Start
	unlock := m.lockRange(namespace, locked)
	defer unlock()
	rng := pm.Lookup(key)
	target, err := plan(rng)
	switch {
	case err != nil:
		return err
	case len(target) == 0:
		return partition.ErrNeedReplicas
	case slices.Equal(rng.Replicas, target):
		m.retryPendingFor(namespace, rng, locked)
		return nil
	}
	up := m.dir.Up()
	for _, id := range diff(target, rng.Replicas) {
		if !slices.Contains(up, id) {
			return fmt.Errorf("migration: %s %s: %s: %w", namespace, rng, id, ErrTargetDown)
		}
	}

	m.started.Add(1)
	err = m.migrate(pm, namespace, key, rng, target)
	if err != nil {
		m.failed.Add(1)
		m.event(Event{Phase: PhaseDone, Namespace: namespace, Start: rng.Start, End: rng.End, Target: target, Err: err})
		return err
	}
	m.retryPendingFor(namespace, rng, locked)
	m.succeeded.Add(1)
	m.event(Event{Phase: PhaseDone, Namespace: namespace, Start: rng.Start, End: rng.End, Target: target})
	return nil
}

// RetryCleanups re-attempts every journaled post-flip teardown (for
// example after a donor that was unreachable at flip time comes back).
// Nodes that have left the directory entirely are forgotten. Returns
// how many nodes still await teardown.
func (m *Manager) RetryCleanups() int {
	// Each entry's nodes are read under m.mu: a migration may journal
	// or forget nodes of the same entry meanwhile.
	m.mu.Lock()
	work := make([]*cleanup, 0, len(m.pending))
	nodes := make([][]string, 0, len(m.pending))
	for _, k := range slices.Sorted(maps.Keys(m.pending)) {
		work = append(work, m.pending[k])
		nodes = append(nodes, m.pending[k].pendingNodes())
	}
	m.mu.Unlock()
	for i, c := range work {
		m.cleanupRetries.Add(1)
		m.runCleanup(c.namespace, partition.Range{Start: c.start, End: c.end}, nodes[i], false, nil)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.pending {
		n += len(c.nodes)
	}
	return n
}

func (c *cleanup) pendingNodes() []string {
	return slices.Sorted(maps.Keys(c.nodes))
}

// migrate runs the state machine for one range. rng is the range as
// looked up under the per-range lock; target differs from its replicas.
func (m *Manager) migrate(pm *partition.Map, namespace string, key []byte, rng partition.Range, target []string) error {
	old := rng.Replicas

	// Catch-up targets: every target node without a full copy. A node
	// already in the replica set only has the (bounded-staleness)
	// replicated copy, so a node being *promoted to primary* catches
	// up too — after the handoff the new primary serves every
	// acknowledged write, not just the replicated prefix.
	catchup := diff(target, old)
	if target[0] != old[0] && !slices.Contains(catchup, target[0]) && slices.Contains(old, target[0]) {
		catchup = append([]string{target[0]}, catchup...)
	}

	var epoch, watermark uint64
	var donorAddr string
	var catchupTargets []nodeAddr
	if len(catchup) > 0 {
		donorID, addr, err := m.pickDonor(old)
		if err != nil {
			return fmt.Errorf("migration: %s %s: %w", namespace, rng, err)
		}
		donorAddr = addr
		// The donor itself never catches up from itself (it can end up
		// in the catch-up set when the primary is down and a promoted
		// secondary is the best remaining source).
		catchupTargets, err = m.resolveAll(diff(catchup, []string{donorID}))
		if err != nil {
			return fmt.Errorf("migration: %s %s: %w", namespace, rng, err)
		}
	}
	if len(catchupTargets) > 0 {
		for _, t := range catchupTargets {
			// Lift the residual fence on a node regaining the range (a
			// past donor keeps its fence when it loses a range).
			if err := m.fence(t.addr, namespace, rng, false); err != nil {
				return fmt.Errorf("migration: unfence target %s: %w", t.id, err)
			}
			// A pure addition holds no authoritative data for the range
			// — truncate whatever a past tenure (or an interrupted
			// teardown) left behind, so the snapshot lands on clean
			// state. A current replica being promoted is serving reads
			// and is left intact; the snapshot merges over it.
			if !slices.Contains(old, t.id) {
				resp, err := m.transport.Call(t.addr, rpc.Request{
					Method: rpc.MethodDropRange, Namespace: namespace,
					Start: rng.Start, End: rng.End,
				})
				if err == nil {
					err = resp.Error()
				}
				if err != nil {
					return fmt.Errorf("migration: reset target %s: %w", t.id, err)
				}
			}
		}
		var err error
		epoch, watermark, err = m.snapshot(namespace, rng, donorAddr, catchupTargets, target)
		if err != nil {
			return err
		}
		// Unfenced delta rounds: chase the donor's write stream until
		// a round comes back small enough to ship under the fence.
		// Resnapshots are bounded too — a namespace written faster
		// than a full snapshot can complete would otherwise loop here
		// forever, never fencing and never surfacing an error.
		const (
			maxResnapshots = 3
			// maxDeltaRounds bounds the unfenced rounds: after them
			// the fence is taken whatever the delta's size.
			maxDeltaRounds = 4
			// deltaThreshold fences as soon as a round returns this
			// many records or fewer — the targets are close enough
			// that the fence's answer is short.
			deltaThreshold = 64
		)
		rounds, resnapshots := 0, 0
		for rounds < maxDeltaRounds {
			n, wm, err := m.deltaOnce(namespace, rng, donorAddr, catchupTargets, epoch, watermark)
			if rpc.IsSnapshotGap(err) {
				// The baseline aged out of the donor's delta log
				// (write burst): restart from a fresh snapshot.
				if resnapshots++; resnapshots > maxResnapshots {
					return fmt.Errorf("migration: %s %s: delta baseline aged out %d times under write load; retry when the namespace write rate subsides", namespace, rng, resnapshots)
				}
				m.resnapshots.Add(1)
				epoch, watermark, err = m.snapshot(namespace, rng, donorAddr, catchupTargets, target)
				if err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			watermark = wm
			rounds++
			if n <= deltaThreshold {
				break
			}
		}
	}

	// Fence the write primary for the handoff; the same call answers
	// the final delta, for the node installs the fence only once the
	// writes in flight have landed. A More page re-sends the fence, an
	// idempotent install, from the advanced watermark. If the primary
	// is unreachable no write can be acknowledged through it, so one
	// more delta from the donor takes what is left.
	primaryAddr, primaryUp := m.dir.Addr(old[0])
	// Any error between fence and flip lifts the fence — the old
	// primary still owns the range, and a fence whose answer was lost
	// may be up.
	unfencePrimary := func() {
		if primaryUp {
			_ = m.fence(primaryAddr, namespace, rng, false)
		}
	}
	var err error
	if primaryUp {
		m.event(Event{Phase: PhaseFence, Namespace: namespace, Start: rng.Start, End: rng.End, Target: target})
		m.fencePauses.Add(1)
		if len(catchupTargets) > 0 {
			_, _, _, err = m.ship(primaryAddr, catchupTargets, rpc.Request{
				Method: rpc.MethodRangeFence, Namespace: namespace, Start: rng.Start, End: rng.End,
				Fence: true, Since: watermark, Epoch: epoch,
			}, &m.deltaRecords)
		} else {
			err = m.fence(primaryAddr, namespace, rng, true)
		}
	} else if len(catchupTargets) > 0 {
		_, _, err = m.deltaOnce(namespace, rng, donorAddr, catchupTargets, epoch, watermark)
	}
	if err != nil {
		unfencePrimary()
		return fmt.Errorf("migration: fence %s %s: %w", namespace, rng, err)
	}

	// Flip the routing: the single atomic step of the handoff. The
	// compare-and-set on the epoch the move planned against guards
	// against a concurrent change of the same range — most importantly
	// the repair manager's failover promotion after the donor primary
	// crashed mid-migration, and a split, which leaves the range's other
	// half on the fenced donor. Losing the race aborts the migration
	// (the caller re-reads and retries) rather than silently reinstating
	// a dead primary or stranding a half.
	m.event(Event{Phase: PhaseFlip, Namespace: namespace, Start: rng.Start, End: rng.End, Target: target})
	if _, err := pm.CompareAndSetReplicas(key, rng.Epoch, target); err != nil {
		unfencePrimary()
		return fmt.Errorf("migration: flip %s %s: %w", namespace, rng, err)
	}

	// The old primary keeps the range: writes may flow to it again
	// (possibly as a secondary via replication). One that lost it keeps
	// its fence: a straggler write routed before the flip must bounce
	// to the new primary, never land invisibly here.
	if slices.Contains(target, old[0]) {
		unfencePrimary()
	}

	// Teardown: journal the range's drop on every node that lost it;
	// MoveRange runs the journal, with any nodes left over from an
	// earlier failed attempt. Failures stay journaled and are retried —
	// the flip has happened, so the migration itself has succeeded.
	drops := diff(old, target)
	m.event(Event{Phase: PhaseCleanup, Namespace: namespace, Start: rng.Start, End: rng.End, Target: target})
	// The new owners must drop out of any stale teardown journaled by
	// an earlier migration of this range — they hold live data now.
	for _, id := range target {
		m.forgetCleanup(namespace, rng, id)
	}
	m.journalCleanup(namespace, rng, drops)
	return nil
}

// --- phases ---

// pageRecords is how many records the manager asks a donor for per
// snapshot or delta page.
const pageRecords = 1024

// snapshot pages the full range from the donor to the targets and
// returns the delta baseline captured before the first page.
func (m *Manager) snapshot(namespace string, rng partition.Range, donorAddr string, targets []nodeAddr, replicaTarget []string) (epoch, watermark uint64, err error) {
	m.event(Event{Phase: PhaseSnapshot, Namespace: namespace, Start: rng.Start, End: rng.End, Target: replicaTarget})
	first, _, _, err := m.ship(donorAddr, targets, rpc.Request{
		Method: rpc.MethodRangeSnapshot, Namespace: namespace, Start: rng.Start, End: rng.End,
	}, &m.snapshotRecords)
	if err != nil {
		return 0, 0, fmt.Errorf("migration: snapshot %s %s: %w", namespace, rng, err)
	}
	return first.Epoch, first.Watermark, nil
}

// deltaOnce fetches and installs every record modified after the
// watermark and returns how many were shipped plus the advanced
// watermark.
func (m *Manager) deltaOnce(namespace string, rng partition.Range, donorAddr string, targets []nodeAddr, epoch, since uint64) (int, uint64, error) {
	m.event(Event{Phase: PhaseDelta, Namespace: namespace, Start: rng.Start, End: rng.End})
	_, last, n, err := m.ship(donorAddr, targets, rpc.Request{
		Method: rpc.MethodRangeDelta, Namespace: namespace,
		Start: rng.Start, End: rng.End, Since: since, Epoch: epoch,
	}, &m.deltaRecords)
	if err != nil {
		return n, since, err
	}
	m.deltaRoundsRun.Add(1)
	return n, last.Watermark, nil
}

// ship pages req from the donor to the targets and returns the first
// and last pages plus the records shipped. A snapshot page resumes from
// the donor's Resume key, a delta page — a fence install's too — from
// its watermark. Paging stops only when a page arrives with More unset:
// a short page may have stopped at the donor's byte budget (stopping
// there in the fenced handoff would leave applied writes behind on the
// donor), and watermark progress is no signal either — writes to
// *other* ranges of the namespace advance it every round, which would
// spin the paging, with the fence up, for as long as the namespace
// takes traffic.
func (m *Manager) ship(donorAddr string, targets []nodeAddr, req rpc.Request, shipped *atomic.Int64) (first, last rpc.Response, n int, err error) {
	req.Limit = pageRecords
	for page := 0; ; page++ {
		resp, err := m.transport.Call(donorAddr, req)
		if err == nil {
			// A semantic failure (storage error, frame-overflow
			// substitute, ErrSnapshotGap) travels in resp.Err: it must
			// fail the phase, not read as a clean terminal page.
			err = resp.Error()
		}
		if err != nil {
			return first, last, n, err
		}
		if page == 0 {
			first = resp
		}
		if len(resp.Records) > 0 {
			if err := m.applyTo(targets, req.Namespace, resp.Records); err != nil {
				return first, last, n, err
			}
			shipped.Add(int64(len(resp.Records)))
			n += len(resp.Records)
		}
		if !resp.More {
			return first, resp, n, nil
		}
		if req.Method == rpc.MethodRangeSnapshot {
			req.Start = resp.Resume
		} else {
			req.Since = resp.Watermark
		}
	}
}

// runCleanup fences and truncates the range on each node; nodes that
// fail stay journaled, nodes that left the directory are forgotten,
// and nodes that currently own any part of the range per the routing
// map are forgotten without teardown — a stale journal entry must
// never fence and truncate live data on a node that regained the
// range after the teardown was journaled. It runs under the lock of
// every current range overlapping rng (see lockOverlapping; when
// holding, the caller holds the lock of the range starting at held),
// so no move of those ranges can copy onto a node between its
// ownership check and its drop.
func (m *Manager) runCleanup(namespace string, rng partition.Range, nodes []string, holding bool, held []byte) {
	unlock, ok := m.lockOverlapping(namespace, rng.Start, rng.End, holding, held)
	if !ok {
		return // stays journaled for RetryCleanups, which takes every lock
	}
	defer unlock()
	for _, id := range nodes {
		if _, known := m.dir.Get(id); !known {
			// The node was removed from the cluster; its copy went
			// with it.
			m.forgetCleanup(namespace, rng, id)
			continue
		}
		if m.ownsPartOf(namespace, rng.Start, rng.End, id) {
			m.forgetCleanup(namespace, rng, id)
			continue
		}
		addr, up := m.dir.Addr(id)
		if !up {
			continue // stays journaled
		}
		// Permanent fence first: a straggling replicated write must not
		// re-materialise data on the dropped holder after the teardown.
		if err := m.fence(addr, namespace, rng, true); err != nil {
			m.event(Event{Phase: PhaseCleanup, Namespace: namespace, Start: rng.Start, End: rng.End, Err: err})
			continue
		}
		resp, err := m.transport.Call(addr, rpc.Request{
			Method: rpc.MethodDropRange, Namespace: namespace,
			Start: rng.Start, End: rng.End,
		})
		if err == nil {
			err = resp.Error()
		}
		if err != nil {
			m.event(Event{Phase: PhaseCleanup, Namespace: namespace, Start: rng.Start, End: rng.End, Err: err})
			continue
		}
		m.forgetCleanup(namespace, rng, id)
	}
}

// --- cleanup journal ---

func cleanupKey(namespace string, rng partition.Range) string {
	return namespace + "\x00" + string(rng.Start)
}

func (m *Manager) journalCleanup(namespace string, rng partition.Range, nodes []string) {
	if len(nodes) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := cleanupKey(namespace, rng)
	c := m.pending[k]
	if c == nil {
		c = &cleanup{
			namespace: namespace,
			start:     rng.Start,
			end:       rng.End,
			nodes:     make(map[string]bool),
		}
		m.pending[k] = c
	}
	for _, id := range nodes {
		c.nodes[id] = true
	}
}

func (m *Manager) forgetCleanup(namespace string, rng partition.Range, node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := cleanupKey(namespace, rng)
	if c := m.pending[k]; c != nil {
		delete(c.nodes, node)
		if len(c.nodes) == 0 {
			delete(m.pending, k)
		}
	}
}

// retryPendingFor runs the journaled teardown of rng's start, if any,
// for a mover holding the lock of the range that starts at held.
func (m *Manager) retryPendingFor(namespace string, rng partition.Range, held []byte) {
	m.mu.Lock()
	c := m.pending[cleanupKey(namespace, rng)]
	var nodes []string
	var stored partition.Range
	if c != nil {
		nodes = c.pendingNodes()
		// Tear down exactly what the journal recorded: the live range
		// bounds may have shifted (split/merge) since the entry was
		// written.
		stored = partition.Range{Start: c.start, End: c.end}
	}
	m.mu.Unlock()
	if len(nodes) > 0 {
		m.runCleanup(namespace, stored, nodes, true, held)
	}
}

// lockOverlapping takes the lock of every current range of namespace
// that overlaps [start, end), in ascending start order: every taker of
// several range locks takes them in that order, so none waits for one
// that waits for it. When holding, the caller holds the lock of the
// range starting at held; a range below it cannot be taken in order, so
// then nothing is taken and ok is false. A split moves starts, so the
// ranges are looked up again under their locks, and the locks taken
// again if they changed.
func (m *Manager) lockOverlapping(namespace string, start, end []byte, holding bool, held []byte) (unlock func(), ok bool) {
	for {
		starts := m.overlappingStarts(namespace, start, end)
		var unlocks []func()
		unlock = func() {
			for i := len(unlocks) - 1; i >= 0; i-- {
				unlocks[i]()
			}
		}
		for _, s := range starts {
			if holding {
				if c := bytes.Compare(s, held); c == 0 {
					continue
				} else if c < 0 {
					unlock()
					return nil, false
				}
			}
			unlocks = append(unlocks, m.lockRange(namespace, s))
		}
		if slices.EqualFunc(starts, m.overlappingStarts(namespace, start, end), bytes.Equal) {
			return unlock, true
		}
		unlock()
	}
}

// overlappingStarts is the starts of the current ranges of namespace
// overlapping [start, end), ascending.
func (m *Manager) overlappingStarts(namespace string, start, end []byte) [][]byte {
	var starts [][]byte
	for _, r := range m.overlapping(namespace, start, end) {
		starts = append(starts, r.Start)
	}
	return starts
}

// ownsPartOf reports whether node currently serves any subrange of
// [start, end) according to the routing map.
func (m *Manager) ownsPartOf(namespace string, start, end []byte, node string) bool {
	for _, r := range m.overlapping(namespace, start, end) {
		if slices.Contains(r.Replicas, node) {
			return true
		}
	}
	return false
}

// overlapping is the current ranges of namespace overlapping [start,
// end): none when the namespace has no map.
func (m *Manager) overlapping(namespace string, start, end []byte) []partition.Range {
	if pm, ok := m.maps(namespace); ok {
		return pm.Overlapping(start, end)
	}
	return nil
}

// --- plumbing ---

type nodeAddr struct {
	id   string
	addr string
}

func (m *Manager) pickDonor(replicas []string) (string, string, error) {
	// Prefer the primary: it holds every acknowledged write.
	for _, id := range replicas {
		if addr, ok := m.dir.Addr(id); ok {
			return id, addr, nil
		}
	}
	return "", "", errors.New("no reachable donor replica")
}

func (m *Manager) resolveAll(ids []string) ([]nodeAddr, error) {
	out := make([]nodeAddr, 0, len(ids))
	for _, id := range ids {
		addr, ok := m.dir.Addr(id)
		if !ok {
			return nil, fmt.Errorf("catch-up target %s: %w", id, ErrTargetDown)
		}
		out = append(out, nodeAddr{id: id, addr: addr})
	}
	return out, nil
}

func (m *Manager) applyTo(targets []nodeAddr, namespace string, recs []record.Record) error {
	for _, t := range targets {
		resp, err := m.transport.Call(t.addr, rpc.Request{
			Method: rpc.MethodApply, Namespace: namespace, Records: recs,
		})
		if err == nil {
			err = resp.Error()
		}
		if err != nil {
			return fmt.Errorf("apply to %s: %w", t.id, err)
		}
	}
	return nil
}

func (m *Manager) fence(addr, namespace string, rng partition.Range, on bool) error {
	resp, err := m.transport.Call(addr, rpc.Request{
		Method: rpc.MethodRangeFence, Namespace: namespace,
		Start: rng.Start, End: rng.End, Fence: on,
	})
	if err != nil {
		return err
	}
	return resp.Error()
}

func (m *Manager) lockRange(namespace string, start []byte) func() {
	k := namespace + "\x00" + string(start)
	m.mu.Lock()
	l := m.inflight[k]
	if l == nil {
		l = &rangeLock{ch: make(chan struct{}, 1)}
		m.inflight[k] = l
	}
	l.refs++
	m.mu.Unlock()

	l.ch <- struct{}{} // acquire
	return func() {
		<-l.ch
		m.mu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(m.inflight, k)
		}
		m.mu.Unlock()
	}
}

func (m *Manager) event(ev Event) {
	if m.OnPhase != nil {
		m.OnPhase(ev)
	}
}

// diff returns the members of a not in b, in a's order.
func diff(a, b []string) []string {
	return slices.DeleteFunc(slices.Clone(a), func(x string) bool { return slices.Contains(b, x) })
}
