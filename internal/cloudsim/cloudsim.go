// Package cloudsim simulates the utility-computing substrate the paper
// builds on (§1, §2.1): an elastic pool of instances with realistic
// boot delay, per-machine-hour billing, capacity limits, and failure
// injection, all driven by a virtual clock. Every economics experiment
// (Animoto scale-up, diurnal scale-down) runs against this simulator
// with the identical director logic that would drive a real cloud API.
package cloudsim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"scads/internal/clock"
)

// InstanceState is the lifecycle state of one simulated machine.
type InstanceState int

// Lifecycle: requested instances boot for BootDelay, then run until
// terminated (or failed).
const (
	StateBooting InstanceState = iota
	StateRunning
	StateTerminated
	StateFailed
)

// String implements fmt.Stringer.
func (s InstanceState) String() string {
	switch s {
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	case StateTerminated:
		return "terminated"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Instance is one simulated machine.
type Instance struct {
	ID          string
	State       InstanceState
	RequestedAt time.Time
	ReadyAt     time.Time // when boot completes
	StoppedAt   time.Time // termination or failure time
}

// Options configure the simulated cloud.
type Options struct {
	// BootDelay is how long an instance takes to become ready.
	// Default 90s (EC2-era m1 instances took one to several minutes).
	BootDelay time.Duration
	// PricePerHour is the cost of one machine-hour. Default $0.10
	// (2008 EC2 m1.small).
	PricePerHour float64
	// BillingGranularity rounds each instance's billed time up to a
	// multiple of this. Default one hour (EC2's 2008 model); the
	// paper's "hours to minutes" granularity is configurable.
	BillingGranularity time.Duration
}

func (o Options) withDefaults() Options {
	if o.BootDelay <= 0 {
		o.BootDelay = 90 * time.Second
	}
	if o.PricePerHour <= 0 {
		o.PricePerHour = 0.10
	}
	if o.BillingGranularity <= 0 {
		o.BillingGranularity = time.Hour
	}
	return o
}

// Cloud is the simulated provider. Safe for concurrent use.
type Cloud struct {
	clk  clock.Clock
	opts Options

	mu        sync.Mutex
	instances map[string]*Instance
	seq       int
}

// New returns a Cloud on the given clock.
func New(clk clock.Clock, opts Options) *Cloud {
	return &Cloud{clk: clk, opts: opts.withDefaults(), instances: make(map[string]*Instance)}
}

// Request starts n new instances and returns them.
func (c *Cloud) Request(n int) []*Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	var granted []*Instance
	for i := 0; i < n; i++ {
		c.seq++
		inst := &Instance{
			ID:          fmt.Sprintf("i-%06d", c.seq),
			State:       StateBooting,
			RequestedAt: now,
			ReadyAt:     now.Add(c.opts.BootDelay),
		}
		c.instances[inst.ID] = inst
		granted = append(granted, inst)
	}
	return granted
}

// Poll transitions booting instances whose boot delay has elapsed to
// running, returning the newly running IDs (sorted).
func (c *Cloud) Poll() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	var ready []string
	for _, inst := range c.instances {
		if inst.State == StateBooting && !inst.ReadyAt.After(now) {
			inst.State = StateRunning
			ready = append(ready, inst.ID)
		}
	}
	sort.Strings(ready)
	return ready
}

// Terminate stops an instance (no-op if already stopped).
func (c *Cloud) Terminate(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok || inst.State == StateTerminated || inst.State == StateFailed {
		return
	}
	inst.State = StateTerminated
	inst.StoppedAt = c.clk.Now()
}

// Fail crashes an instance (failure injection for durability and
// availability experiments).
func (c *Cloud) Fail(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok || inst.State == StateTerminated || inst.State == StateFailed {
		return
	}
	inst.State = StateFailed
	inst.StoppedAt = c.clk.Now()
}

// Get returns a copy of the instance.
func (c *Cloud) Get(id string) (Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return Instance{}, false
	}
	return *inst, true
}

// Running returns the IDs of running instances, sorted.
func (c *Cloud) Running() []string {
	return c.byState(StateRunning)
}

// Booting returns the IDs of booting instances, sorted.
func (c *Cloud) Booting() []string {
	return c.byState(StateBooting)
}

func (c *Cloud) byState(s InstanceState) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for id, inst := range c.instances {
		if inst.State == s {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Counts returns (booting, running, stopped) instance counts.
func (c *Cloud) Counts() (booting, running, stopped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, inst := range c.instances {
		switch inst.State {
		case StateBooting:
			booting++
		case StateRunning:
			running++
		default:
			stopped++
		}
	}
	return
}

// MachineHours returns total billed machine-hours so far: each
// instance's wall time from request to stop (or now), rounded up to
// the billing granularity.
func (c *Cloud) MachineHours() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	var total time.Duration
	for _, inst := range c.instances {
		end := now
		if inst.State == StateTerminated || inst.State == StateFailed {
			end = inst.StoppedAt
		}
		d := end.Sub(inst.RequestedAt)
		if d < 0 {
			d = 0
		}
		g := c.opts.BillingGranularity
		billed := time.Duration(math.Ceil(float64(d)/float64(g))) * g
		total += billed
	}
	return total.Hours()
}

// CostUSD returns the total bill.
func (c *Cloud) CostUSD() float64 {
	return c.MachineHours() * c.opts.PricePerHour
}

// ServiceModel converts per-server load into latency/success — the
// synthetic service curve experiments use when they do not run a real
// storage cluster. Parameters follow the open queueing form latency =
// Base + K·ρ/(1-ρ).
type ServiceModel struct {
	// CapacityPerServer is the saturation rate of one server (req/s).
	CapacityPerServer float64
	// Base is the idle service latency.
	Base time.Duration
	// K scales the queueing term.
	K time.Duration
}

// Latency returns the SLA-percentile latency at the given aggregate
// rate over n servers. Saturated systems return a large finite value
// (requests time out rather than wait forever).
func (s ServiceModel) Latency(totalRate float64, servers int) time.Duration {
	if servers <= 0 {
		return 10 * time.Second
	}
	rho := totalRate / (s.CapacityPerServer * float64(servers))
	if rho >= 0.99 {
		return 10 * time.Second
	}
	if rho < 0 {
		rho = 0
	}
	return s.Base + time.Duration(float64(s.K)*rho/(1-rho))
}

// SuccessRate returns the fraction (in percent) of requests that
// succeed at the given load: 100% below saturation, degrading with
// overload as the excess is shed.
func (s ServiceModel) SuccessRate(totalRate float64, servers int) float64 {
	if servers <= 0 {
		return 0
	}
	capacity := s.CapacityPerServer * float64(servers)
	if totalRate <= capacity {
		return 100
	}
	return 100 * capacity / totalRate
}
