// Package admission is the coordinator's front door: every public
// read, write and scan passes through a Controller before touching
// the data plane. It enforces three policies the paper's SLA story
// depends on once traffic is adversarial rather than friendly:
//
//   - Per-tenant token-bucket quotas (ops/sec, and scan-bytes/sec
//     debited post-paid) so one tenant's demand cannot consume the
//     coordinator. Buckets refill off an injected clock.Clock, so the
//     package sits inside internal/lint's determinism scope and the
//     unit suite replays refill boundaries exactly.
//   - Priority-aware shedding under measured overload. Overload is an
//     in-flight watermark (admitted ops currently executing), never a
//     wall-clock heuristic. As in-flight climbs toward MaxInFlight,
//     work is shed strictly by class: best-effort scans first, then
//     best-effort writes/reads, then committed scans; committed
//     writes are shed only at the hard ceiling.
//   - Backpressure as a classified error: every rejection wraps
//     rpc.ErrOverloaded with a retry-after hint, so client retry
//     budgets back off instead of hammering.
//
// The controller also tracks per-tenant demand rates over a rolling
// window; HotTenants surfaces sustained skew so the balancer can
// rebalance instead of the front door shedding the same tenant
// forever.
package admission

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/rpc"
)

// Priority is a tenant's SLA class, mirroring the paper's split
// between committed traffic (carries a per-request SLO the system
// defends) and best-effort traffic (first to shed when capacity is
// momentarily short).
type Priority int

// Tenant SLA classes, in shed order: BestEffort work sheds first.
const (
	BestEffort Priority = iota
	Committed
)

// String names the priority for stats rendering.
func (p Priority) String() string {
	if p == Committed {
		return "committed"
	}
	return "besteffort"
}

// Op classifies a front-door operation for shed ordering. Scans shed
// before point ops within a priority class: a shed scan wastes no
// partial fan-out, while writes are the paper's "never lose acked
// work" contract.
type Op int

// Front-door operation kinds.
const (
	OpRead Op = iota
	OpWrite
	OpScan
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpScan:
		return "scan"
	default:
		return "read"
	}
}

// NumShedClasses is the number of distinct shed classes.
const NumShedClasses = 4

// Shed class names, indexed by ShedClass; class 0 sheds last.
var ClassNames = [NumShedClasses]string{
	"committed-write", "committed-scan", "besteffort-write", "besteffort-scan",
}

// ShedClass maps (priority, op) to its shed class. Higher classes
// shed earlier: 3 = best-effort scans, 2 = best-effort writes/reads,
// 1 = committed scans, 0 = committed writes/reads (shed only at the
// hard in-flight ceiling).
func ShedClass(pri Priority, op Op) int {
	if pri == Committed {
		if op == OpScan {
			return 1
		}
		return 0
	}
	if op == OpScan {
		return 3
	}
	return 2
}

// shedFloor returns the lowest shed class rejected at the given
// in-flight level: classes >= the floor are shed, classes below it
// are still admitted. NumShedClasses means nothing is shed. The
// thresholds are fractions of max so the degradation is strictly
// ordered at every instant: best-effort scans stop at 5/8 of the
// watermark, best-effort writes at 6/8, committed scans at 7/8, and
// committed writes only at the ceiling itself.
func shedFloor(inFlight, max int) int {
	switch {
	case inFlight >= max:
		return 0
	case inFlight*8 >= max*7:
		return 1
	case inFlight*8 >= max*6:
		return 2
	case inFlight*8 >= max*5:
		return 3
	default:
		return NumShedClasses
	}
}

// overloadRetryAfter is the retry-after hint attached to in-flight
// watermark sheds: the watermark clears as fast as admitted ops
// complete, so the hint is short.
const overloadRetryAfter = 5 * time.Millisecond

// TenantConfig is one tenant's quota and class. Zero-valued rates
// mean unlimited; the zero config admits everything at BestEffort.
type TenantConfig struct {
	// OpsPerSec refills the operation bucket (Get=1, GetMulti=len,
	// write=1, batch=len, scan=1). 0 = unlimited.
	OpsPerSec float64
	// Burst is the operation bucket capacity; 0 defaults to one
	// second's worth of refill (min 1).
	Burst float64

	// ScanBytesPerSec refills the scan-byte bucket. Scans are
	// admitted whenever the bucket is positive and debit their actual
	// result size afterwards (post-paid — the size isn't known up
	// front), so a huge scan can overdraw the bucket once and then
	// blocks further scans until it refills past zero. The bucket
	// holds one second's worth of refill. 0 = unlimited.
	ScanBytesPerSec float64

	// Priority is the tenant's SLA class (zero value: BestEffort).
	Priority Priority
}

// Config configures a Controller.
type Config struct {
	// Clock supplies time for bucket refill and demand windows; nil
	// defaults to the real clock.
	Clock clock.Clock

	// MaxInFlight is the in-flight watermark above which admission
	// sheds by priority class. 0 disables overload shedding (quotas
	// still apply).
	MaxInFlight int

	// Tenants seeds per-tenant configs; SetTenant adds or replaces
	// them later. Tenants never configured — including the default
	// (empty-name) tenant that plain, sessionless API calls belong to
	// — run with the zero config: no quota, BestEffort.
	Tenants map[string]TenantConfig
}

// Hot-tenant detection: a tenant is hot when its demand over the last
// hotWindow reaches hotFactor × the mean of the other active tenants.
const (
	hotWindow = time.Second
	hotFactor = 4
)

// bucket is a token bucket refilled off the controller's clock.
type bucket struct {
	rate   float64 // tokens per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func (b *bucket) advance(now time.Time) {
	if b.rate <= 0 {
		return
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// until returns how long until the bucket holds at least want tokens.
func (b *bucket) until(want float64) time.Duration {
	deficit := want - b.tokens
	if deficit <= 0 || b.rate <= 0 {
		return 0
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}

// tenantState is one tenant's runtime state, guarded by Controller.mu.
type tenantState struct {
	cfg       TenantConfig
	ops       bucket
	scanBytes bucket

	admitted     uint64
	shedQuota    uint64
	shedOverload uint64
	debitedBytes int64

	// Demand-rate window for hot-tenant detection: demand counts
	// every admit attempt (admitted or shed), because a shed tenant's
	// pressure is exactly the signal that should trigger rebalancing
	// rather than vanish.
	winStart time.Time
	winCount float64
	rate     float64 // ops/sec over the last completed window
}

func newTenantState(cfg TenantConfig, now time.Time) *tenantState {
	t := &tenantState{cfg: cfg, winStart: now}
	t.ops = bucket{rate: cfg.OpsPerSec, burst: cfg.Burst, last: now}
	if t.ops.burst <= 0 {
		t.ops.burst = cfg.OpsPerSec
		if t.ops.burst < 1 {
			t.ops.burst = 1
		}
	}
	t.ops.tokens = t.ops.burst
	t.scanBytes = bucket{rate: cfg.ScanBytesPerSec, burst: cfg.ScanBytesPerSec, tokens: cfg.ScanBytesPerSec, last: now}
	return t
}

// observe rolls the demand window and counts one attempt of the given
// cost.
func (t *tenantState) observe(now time.Time, cost float64) {
	if elapsed := now.Sub(t.winStart); elapsed >= hotWindow {
		t.rate = t.winCount / elapsed.Seconds()
		t.winStart = now
		t.winCount = 0
	}
	t.winCount += cost
}

// Controller is the front-door admission gate. Safe for concurrent
// use.
type Controller struct {
	clk clock.Clock

	mu          sync.Mutex
	maxInFlight int
	tenants     map[string]*tenantState
	inFlight    int
	peak        int
	admitted    uint64
	shedQuota   uint64
	shedByClass [NumShedClasses]uint64
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	c := &Controller{
		clk:         clk,
		maxInFlight: cfg.MaxInFlight,
		tenants:     make(map[string]*tenantState),
	}
	now := clk.Now()
	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.tenants[name] = newTenantState(cfg.Tenants[name], now)
	}
	return c
}

// SetTenant installs or replaces a tenant's config, resetting its
// buckets to full.
func (c *Controller) SetTenant(name string, cfg TenantConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenants[name] = newTenantState(cfg, c.clk.Now())
}

func (c *Controller) tenantLocked(name string, now time.Time) *tenantState {
	t := c.tenants[name]
	if t == nil {
		t = newTenantState(TenantConfig{}, now)
		c.tenants[name] = t
	}
	return t
}

// Admit gates one front-door operation for the named tenant (empty =
// default tenant). cost is the operation count it represents (a batch
// admits its length in one call). On admission it returns a release
// func the caller must invoke when the operation finishes — the
// release closes the in-flight accounting that overload shedding
// watches, and calling it again does nothing. On rejection the error
// wraps rpc.ErrOverloaded and carries a retry-after hint. It is Enter
// and Leave behind an idempotent closure; a caller that pairs them
// itself saves the closure's allocations.
func (c *Controller) Admit(tenant string, op Op, cost float64) (func(), error) {
	if rej, ok := c.Enter(tenant, op, cost); !ok {
		return nil, rej.Err()
	}
	var once sync.Once
	return func() { once.Do(c.Leave) }, nil
}

// Rejection is why Enter turned an operation away. It stays a plain
// value until Err, so a rejection allocates only when its error is
// built.
type Rejection struct {
	wait time.Duration
	// quota names the tenant's bucket that refused the operation ("ops"
	// or "scan-byte"); empty for an overload shed.
	quota    string
	tenant   string
	inFlight int
	max      int
	class    int
}

// Err is the rejection as Admit reports it: an error wrapping
// rpc.ErrOverloaded with the retry-after hint.
func (r Rejection) Err() error {
	if r.quota != "" {
		return rpc.Overloaded(r.wait, fmt.Sprintf("tenant %q over %s quota", r.tenant, r.quota))
	}
	return rpc.Overloaded(r.wait,
		fmt.Sprintf("coordinator overloaded (%d/%d in flight), shedding %s", r.inFlight, r.max, ClassNames[r.class]))
}

// Enter gates one operation as Admit does, without allocating. It
// reports true on admission, and the caller must then call Leave
// exactly once when the operation finishes; a Leave missed or repeated
// skews the in-flight count overload shedding watches. On rejection it
// reports false and why.
func (c *Controller) Enter(tenant string, op Op, cost float64) (Rejection, bool) {
	if cost <= 0 {
		cost = 1
	}
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantLocked(tenant, now)
	t.observe(now, cost)

	// Quota first: per-tenant fairness applies even when the
	// coordinator as a whole is idle.
	t.ops.advance(now)
	if t.ops.rate > 0 && t.ops.tokens < cost {
		t.shedQuota++
		c.shedQuota++
		return Rejection{wait: t.ops.until(cost), quota: "ops", tenant: tenant}, false
	}
	if op == OpScan {
		t.scanBytes.advance(now)
		if t.scanBytes.rate > 0 && t.scanBytes.tokens <= 0 {
			// Post-paid scan bytes: a previous scan overdrew the
			// bucket; block scans until it refills past zero.
			t.shedQuota++
			c.shedQuota++
			return Rejection{wait: t.scanBytes.until(1), quota: "scan-byte", tenant: tenant}, false
		}
	}

	// Overload: shed by class against the in-flight watermark.
	class := ShedClass(t.cfg.Priority, op)
	if c.maxInFlight > 0 && class >= shedFloor(c.inFlight, c.maxInFlight) {
		t.shedOverload++
		c.shedByClass[class]++
		return Rejection{wait: overloadRetryAfter, inFlight: c.inFlight, max: c.maxInFlight, class: class}, false
	}

	if t.ops.rate > 0 {
		t.ops.tokens -= cost
	}
	t.admitted++
	c.admitted++
	c.inFlight++
	if c.inFlight > c.peak {
		c.peak = c.inFlight
	}
	return Rejection{}, true
}

// Leave ends one operation Enter admitted.
func (c *Controller) Leave() {
	c.mu.Lock()
	c.inFlight--
	c.mu.Unlock()
}

// DebitScanBytes charges a completed scan's actual result size
// against the tenant's scan-byte bucket (post-paid; may drive it
// negative, which blocks the tenant's next scan until refill).
func (c *Controller) DebitScanBytes(tenant string, n int64) {
	if n <= 0 {
		return
	}
	now := c.clk.Now()
	c.mu.Lock()
	t := c.tenantLocked(tenant, now)
	t.debitedBytes += n
	if t.scanBytes.rate > 0 {
		t.scanBytes.advance(now)
		t.scanBytes.tokens -= float64(n)
	}
	c.mu.Unlock()
}
