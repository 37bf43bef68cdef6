// Package scads is a from-scratch reproduction of SCADS — Scalable
// Consistency Adjustable Data Storage (Armbrust et al., CIDR 2009):
// scale-independent storage for social computing applications.
//
// A Cluster fronts a set of storage nodes (real TCP daemons or
// in-process simulated nodes) and provides the paper's three
// innovations:
//
//   - a performance-safe query language: entities and query templates
//     are declared ahead of time in scadsQL (DefineSchema); each query
//     is either proven to be a bounded contiguous index lookup with
//     O(K) maintenance work or rejected before it can ever run;
//   - declarative consistency: per-namespace specs (ApplyConsistency)
//     choose the write-conflict mode, staleness bound, session
//     guarantees, durability target, and the priority order used when
//     requirements contend;
//   - scale-up/scale-down machinery: the SLA monitor, performance
//     models and director (internal/director) grow and shrink the
//     cluster to meet the declared SLA at minimum cost.
//
// See ARCHITECTURE.md for the system inventory and
// cmd/scads-bench/README.md for the reproduction of every figure in the
// paper.
package scads

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/admission"
	"scads/internal/analyzer"
	"scads/internal/balancer"
	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/consistency"
	"scads/internal/migration"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/repair"
	"scads/internal/replication"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/session"
	"scads/internal/sla"
	"scads/internal/storage"
	"scads/internal/view"
)

// Config configures a Cluster.
type Config struct {
	// Clock drives timestamps, staleness accounting and SLA windows.
	// Default: the real clock.
	Clock clock.Clock
	// Transport reaches storage nodes. Required.
	Transport rpc.Transport
	// Directory tracks node membership. Required.
	Directory *cluster.Directory
	// ReplicationFactor is the number of replicas per range (default 1).
	ReplicationFactor int
	// CoordinatorID disambiguates version stamps from this
	// coordinator (16 bits).
	CoordinatorID uint16
	// SLA is the performance SLA the cluster-wide monitor checks.
	SLA consistency.PerformanceSLA
	// NodeStorage configures the storage engines of in-process nodes
	// created by LocalCluster (read-cache size, synchronous writes,
	// data directory, ...). Clock and NodeID are filled in per node.
	// Ignored for clusters over remote nodes.
	NodeStorage storage.Options
	// Repair tunes the self-healing crash-recovery loop (failure
	// detector, primary failover, replication-factor repair). The loop
	// runs whenever StartBackground is active; RepairNow drives one
	// sweep synchronously for deterministic tests and operator tooling.
	Repair repair.Config
	// Admission configures the front-door admission controller:
	// per-tenant token-bucket quotas, priority-aware overload
	// shedding, and hot-tenant detection. The zero value admits
	// everything (no quotas, no in-flight watermark), so existing
	// single-tenant deployments are unaffected. Admission.Clock is
	// overridden with the cluster Clock.
	Admission admission.Config
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.ReplicationFactor < 1 {
		c.ReplicationFactor = 1
	}
	if c.SLA.Zero() {
		c.SLA = paperSLA
	}
	return c
}

const (
	// defaultStaleness bounds replication lag for tables whose spec
	// declares no staleness bound.
	defaultStaleness = 30 * time.Second
	// migrationParallelism bounds how many range migrations run at
	// once; spreads and decommissions queue their per-range migrations
	// against it.
	migrationParallelism = 4
)

// paperSLA is the SLA of the paper's running example: 99.9% of requests
// under 100ms, 99.99% availability. Clusters that declare none get it.
var paperSLA = consistency.PerformanceSLA{
	Percentile: 99.9, LatencyBound: 100 * time.Millisecond, SuccessRate: 99.99,
}

// Errors surfaced by the public API.
var (
	ErrNoSchema      = errors.New("scads: no schema defined")
	ErrUnknownTable  = errors.New("scads: unknown table")
	ErrUnknownQuery  = errors.New("scads: unknown query")
	ErrStaleReplicas = partition.ErrStaleReplicas
	// ErrWriteConflict is returned by a write that computes its row
	// from the stored one (UpdateFunc, serializable and merge writes)
	// when other writers of the key kept landing first for
	// rpc.DownRetryBudget.
	ErrWriteConflict = errors.New("scads: other writers of the key kept landing first")
)

// Cluster is the client- and coordinator-side handle on a SCADS
// deployment. Safe for concurrent use.
type Cluster struct {
	cfg        Config
	clk        clock.Clock
	router     *partition.Router
	dir        *cluster.Directory
	pump       *replication.Pump
	migrations *migration.Manager
	repairs    *repair.Manager

	merges     *consistency.MergeRegistry
	monitor    *sla.Monitor
	contention contentionLog

	rowMergeMu sync.RWMutex
	rowMerges  map[string]RowMergeFunc

	loads     *balancer.Tracker
	admission *admission.Controller

	// versions stamps every write this coordinator commits.
	versions *clock.HLC
	// lastObservedContention is the contention total already reported
	// through Observe, so each observation carries only the delta.
	lastObservedContention atomic.Int64
	// governed is storage namespace -> the spec it is read under
	// (publishBounds): what the router's replica chooser asks about on
	// every ReadAny read, so it is a snapshot read without c.mu.
	governed atomic.Pointer[map[string]consistency.Spec]

	mu       sync.RWMutex
	schema   *query.Schema
	tableNS  map[string]string // table name -> storage namespace, set with schema
	analysis map[string]*analyzer.Result
	plans    *planner.Output
	views    *view.Engine
	specs    map[string]consistency.Spec // table name -> spec
	maint    *maintQueue
	closed   bool

	bgMu   sync.Mutex
	bgStop chan struct{}
	bgDone sync.WaitGroup
}

// Open creates a Cluster over the given transport and directory. Nodes
// must already be registered in the directory (see AddNode); schema
// and consistency specs are installed afterwards.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Transport == nil || cfg.Directory == nil {
		return nil, errors.New("scads: Config needs Transport and Directory")
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		clk:      cfg.Clock,
		versions: clock.NewHLC(cfg.Clock, cfg.CoordinatorID),
		dir:      cfg.Directory,
		router:   partition.NewRouter(cfg.Transport, cfg.Directory),
		merges:   consistency.NewMergeRegistry(),
		monitor:  sla.NewMonitor(cfg.Clock, cfg.SLA, 0),
		specs:    make(map[string]consistency.Spec),
		maint:    &maintQueue{},
		loads:    balancer.NewTracker(),
	}
	// Every ReadAny read holds back replicas over their namespace's
	// declared staleness bound: the router asks the coordinator, here
	// (none is declared until ApplyConsistency publishes one).
	c.governed.Store(&map[string]consistency.Spec{})
	c.router.HoldBack(bounds{c})
	admCfg := cfg.Admission
	admCfg.Clock = cfg.Clock
	c.admission = admission.New(admCfg)
	// Online range migrations share the transport with the router. The
	// router's maps back the manager's ownership checks, so a journaled
	// teardown can never truncate a range its node has since regained.
	c.migrations = migration.NewManager(cfg.Transport, cfg.Directory, migrationParallelism)
	c.migrations.Resolver = c.router.Map
	c.pump = replication.NewPump(replication.NewQueue(replication.ByDeadline), c.router.Apply, cfg.Clock)
	// Flip-time rebind: while the donor's fence is still held, clone
	// any replication update the fenced drain provably could not have
	// shipped (still queued/parked/in-flight at this coordinator) to
	// the replicas the flip added. Without this, a write acknowledged
	// before a migration could permanently miss the range's new
	// members — and surface as data loss after a later failover onto
	// one of them.
	c.migrations.OnFlip = func(ns string, start, end []byte, old, target []string) {
		added := slices.DeleteFunc(slices.Clone(target), func(id string) bool { return slices.Contains(old, id) })
		if len(added) > 0 {
			c.pump.Rebind(ns, start, end, added)
		}
	}
	// The self-healing loop: failure detection driving
	// Directory.ExpireStale, primary failover, and RF repair through
	// the migration manager. Runs under StartBackground; Sweep/
	// RepairNow drives it deterministically.
	c.repairs = repair.NewManager(cfg.Repair, cfg.Clock, cfg.Directory, cfg.Transport,
		c.router, c.migrations, c.pump, cfg.ReplicationFactor)
	return c, nil
}

// Close marks the cluster closed and stops background pumps.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.StopBackground()
	c.pump.Stop()
	return nil
}

// StartBackground launches replication workers and a maintenance
// drainer so index updates and replica propagation proceed without the
// caller driving DrainMaintenance/FlushAll. Intended for real (wall
// clock) deployments; simulations and deterministic tests drive the
// queues explicitly instead. Safe to call once; Close stops it.
func (c *Cluster) StartBackground(replicationWorkers int) {
	c.bgMu.Lock()
	defer c.bgMu.Unlock()
	if c.bgStop != nil {
		return
	}
	stop := make(chan struct{})
	c.bgStop = stop
	if replicationWorkers < 1 {
		replicationWorkers = 2
	}
	c.pump.Run(replicationWorkers)
	c.repairs.Run()
	c.bgDone.Add(1)
	go func() {
		defer c.bgDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A round reads its tasks' current rows in one batch, so a
			// round that did not fill its budget waits for more tasks
			// to share the next round's read.
			n, err := c.DrainMaintenance(256)
			if err != nil || n < 256 {
				select {
				case <-stop:
					return
				case <-c.clk.After(2 * time.Millisecond):
				}
			}
		}
	}()
}

// StopBackground halts goroutines started by StartBackground.
func (c *Cluster) StopBackground() {
	c.bgMu.Lock()
	if c.bgStop == nil {
		c.bgMu.Unlock()
		return
	}
	close(c.bgStop)
	c.bgStop = nil
	c.bgMu.Unlock()
	c.repairs.Stop()
	c.bgDone.Wait()
}

// Router exposes the partition router (operational tooling).
func (c *Cluster) Router() *partition.Router { return c.router }

// Directory exposes cluster membership.
func (c *Cluster) Directory() *cluster.Directory { return c.dir }

// Pump exposes the replication pump (metrics, draining in tests and
// simulations).
func (c *Cluster) Pump() *replication.Pump { return c.pump }

// Migrations exposes the online range-migration manager (tuning,
// progress events, pending-cleanup retries).
func (c *Cluster) Migrations() *migration.Manager { return c.migrations }

// MigrationStats returns a snapshot of range-migration counters.
func (c *Cluster) MigrationStats() migration.Stats { return c.migrations.Stats() }

// Repairs exposes the self-healing repair manager (phase events,
// tuning, deterministic sweeps in tests).
func (c *Cluster) Repairs() *repair.Manager { return c.repairs }

// RepairStats returns a snapshot of crash-recovery counters: observed
// membership transitions, primary failovers, demotions of stale
// returned replicas, and RF-repair job outcomes.
func (c *Cluster) RepairStats() repair.Stats { return c.repairs.Stats() }

// RepairNow runs one synchronous failure-detection + failover + repair
// sweep (re-replication jobs it schedules still run asynchronously;
// Repairs().Quiesce waits for those).
func (c *Cluster) RepairNow() { c.repairs.Sweep() }

// Monitor exposes the SLA monitor.
func (c *Cluster) Monitor() *sla.Monitor { return c.monitor }

// Admission exposes the front-door admission controller (tenant
// configuration, stats, hot-tenant queries).
func (c *Cluster) Admission() *admission.Controller { return c.admission }

// SetTenant installs or replaces a tenant's admission quota and
// priority class at runtime.
func (c *Cluster) SetTenant(name string, cfg admission.TenantConfig) {
	c.admission.SetTenant(name, cfg)
}

// HotTenants reports tenants whose sustained demand rate dominates the
// mean — the rebalancing signal for skew the front door would
// otherwise shed forever.
func (c *Cluster) HotTenants() []admission.TenantDemand {
	return c.admission.HotTenants()
}

// admit gates one front-door operation through the admission
// controller. The returned release must be called when the operation
// finishes (it closes the in-flight accounting overload shedding
// watches); on rejection the error wraps rpc.ErrOverloaded with a
// retry-after hint and release is a no-op.
func (c *Cluster) admit(tenant string, op admission.Op, cost float64) (func(), error) {
	release, err := c.admission.Admit(tenant, op, cost)
	if err != nil {
		return func() {}, err
	}
	return release, nil
}

// Clock exposes the cluster's time source.
func (c *Cluster) Clock() clock.Clock { return c.clk }

// RegisterMerge binds a named merge function usable in consistency
// specs (write: merge(name)). The function is applied column-wise to
// conflicting string columns; use RegisterRowMerge to resolve whole
// rows instead.
func (c *Cluster) RegisterMerge(name string, fn consistency.MergeFunc) {
	c.merges.Register(name, fn)
}

// RowMergeFunc resolves a write conflict at row granularity: current
// is the stored row, incoming the new write. Returning nil keeps the
// incoming row. Both arguments are clones; mutating them is safe.
type RowMergeFunc func(current, incoming Row) Row

// RegisterRowMerge binds a named row-level merge function usable in
// consistency specs (write: merge(name)). Row-level merges take
// precedence over a byte-level function registered under the same
// name.
func (c *Cluster) RegisterRowMerge(name string, fn RowMergeFunc) {
	c.rowMergeMu.Lock()
	defer c.rowMergeMu.Unlock()
	if c.rowMerges == nil {
		c.rowMerges = make(map[string]RowMergeFunc)
	}
	c.rowMerges[name] = fn
}

func (c *Cluster) lookupRowMerge(name string) (RowMergeFunc, bool) {
	c.rowMergeMu.RLock()
	defer c.rowMergeMu.RUnlock()
	fn, ok := c.rowMerges[name]
	return fn, ok
}

// NewSession opens a client session with the guarantee level declared
// for the given table's namespace (SessionNone when unspecified).
func (c *Cluster) NewSession(table string) *session.Session {
	c.mu.RLock()
	spec := c.specs[table]
	c.mu.RUnlock()
	return session.New(spec.Session)
}

// specFor returns the consistency spec governing a table (zero spec
// with defaults when none was declared).
func (c *Cluster) specFor(table string) consistency.Spec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.specs[table]
}

// stalenessBound returns the declared staleness bound for a table.
func (c *Cluster) stalenessBound(table string) time.Duration {
	if s := c.specFor(table).Staleness; s > 0 {
		return s
	}
	return defaultStaleness
}

// record wraps an operation with SLA accounting.
func (c *Cluster) record(start time.Time, err error) {
	c.monitor.Record(c.clk.Since(start), err == nil)
}

// Stats summarises coordinator state.
type Stats struct {
	Replication replication.Stats
	Maintenance int // pending asynchronous index-maintenance tasks
	SLA         sla.Summary
	Batching    rpc.BatcherStats // always zero; the benchmark module reads it
	Migration   migration.Stats  // online range-migration activity
	Repair      repair.Stats     // self-healing crash-recovery activity
	Admission   admission.Stats  // front-door quotas / overload shedding
}

// Stats returns a snapshot.
func (c *Cluster) Stats() Stats {
	return Stats{
		Replication: c.pump.Stats(),
		Maintenance: c.maint.Len(),
		SLA:         c.monitor.Summary(),
		Migration:   c.migrations.Stats(),
		Repair:      c.repairs.Stats(),
		Admission:   c.admission.Stats(),
	}
}

// Row is the public alias for a typed tuple.
type Row = row.Row
