// Package cloudsim simulates the utility-computing substrate the paper
// builds on (§1, §2.1): an elastic pool of instances with realistic
// boot delay and per-machine-hour billing, driven by a virtual clock,
// plus the synthetic service curve that turns an offered rate into the
// latency and success the SLA monitor sees. Every economics experiment
// (Animoto scale-up, diurnal scale-down) and the end-to-end elastic
// scenarios run against this one boot-delay and billing model.
package cloudsim

import (
	"math"
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/mlmodel"
)

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

// instance is one simulated machine: requested instances boot until
// readyAt, serve once a Poll has seen them ready, and stop when
// released.
type instance struct {
	requestedAt, readyAt, stoppedAt time.Time
	running, stopped                bool
}

// Cloud is the simulated provider and the director's lever on it (it
// implements director.Actuator): Request starts instances that count as
// Booting until a Poll after their boot delay, Release stops the newest
// running ones. Safe for concurrent use.
type Cloud struct {
	clk  clock.Clock
	opts Options

	mu        sync.Mutex
	instances []instance // in request order
}

// New returns a Cloud on the given clock.
func New(clk clock.Clock, opts Options) *Cloud {
	return &Cloud{clk: clk, opts: opts.withDefaults()}
}

// Request starts n new instances.
func (c *Cloud) Request(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	for i := 0; i < n; i++ {
		c.instances = append(c.instances, instance{requestedAt: now, readyAt: now.Add(c.opts.BootDelay)})
	}
}

// Poll puts into service every booting instance whose boot delay has
// elapsed. Between polls the fleet does not change under the director:
// a control step sees the counts its interval was served with.
func (c *Cloud) Poll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	for i := range c.instances {
		if inst := &c.instances[i]; !inst.stopped && !inst.readyAt.After(now) {
			inst.running = true
		}
	}
}

// Release stops n running instances, newest first: under hourly
// billing they have the least sunk partial hour, and the oldest,
// warmest nodes keep serving.
func (c *Cloud) Release(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	for i := len(c.instances) - 1; i >= 0 && n > 0; i-- {
		if inst := &c.instances[i]; inst.running {
			inst.running, inst.stopped, inst.stoppedAt = false, true, now
			n--
		}
	}
}

// Running returns the number of serving instances.
func (c *Cloud) Running() int { return c.count(true) }

// Booting returns the number of instances requested but not yet put
// into service.
func (c *Cloud) Booting() int { return c.count(false) }

func (c *Cloud) count(running bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.instances {
		if inst := &c.instances[i]; !inst.stopped && inst.running == running {
			n++
		}
	}
	return n
}

// MachineHours returns total billed machine-hours so far: each
// instance's wall time from request to stop (or now), rounded up to
// the billing granularity.
func (c *Cloud) MachineHours() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	g := c.opts.BillingGranularity
	var total time.Duration
	for i := range c.instances {
		inst := &c.instances[i]
		end := now
		if inst.stopped {
			end = inst.stoppedAt
		}
		d := end.Sub(inst.requestedAt)
		total += time.Duration(math.Ceil(float64(d)/float64(g))) * g
	}
	return total.Hours()
}

// CostUSD returns the total bill.
func (c *Cloud) CostUSD() float64 {
	return c.MachineHours() * c.opts.PricePerHour
}

// Load is what an offered rate looks like from the SLA monitor's side:
// one interval's synthetic telemetry.
type Load struct {
	// Rate is the offered request rate (req/s).
	Rate float64
	// Latency is the SLA-percentile latency every request saw.
	Latency time.Duration
	// SuccessPct is the percentage of requests that succeeded.
	SuccessPct float64
}

// ServiceModel converts per-server load into latency/success — the
// synthetic service curve experiments use when they do not run a real
// storage cluster. Parameters follow the open queueing form latency =
// Base + K·ρ/(1-ρ). Latency is the simulator's ground truth; Curve is
// the same curve in the units the models size with.
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

// Curve returns the service's curve as an mlmodel.Curve.
func (s ServiceModel) Curve() mlmodel.Curve {
	return mlmodel.Curve{Capacity: s.CapacityPerServer, Base: s.Base.Seconds(), K: s.K.Seconds()}
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

// Serve returns the telemetry of rate req/s spread over n servers.
func (s ServiceModel) Serve(rate float64, servers int) Load {
	return Load{Rate: rate, Latency: s.Latency(rate, servers), SuccessPct: s.SuccessRate(rate, servers)}
}

// Profile returns one server's telemetry across its utilisation range
// in 5% steps: the "models of past performance" (§2.2) a deployment's
// capacity model is trained on before it takes live load.
func (s ServiceModel) Profile() []Load {
	var out []Load
	for frac := 0.05; frac < 0.95; frac += 0.05 {
		out = append(out, s.Serve(s.CapacityPerServer*frac, 1))
	}
	return out
}
