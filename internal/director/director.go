// Package director implements the provisioning feedback loop of
// Figure 2: observe workload and SLA compliance, update the
// performance models, forecast near-future demand, and add or remove
// capacity so requirements keep holding at minimum cost. Two policies
// are built in — the paper's model-driven policy (capacity model +
// forecast, provisioning *ahead* of demand) and a reactive
// threshold-rule baseline used as the ablation in experiments E1/E2.
package director

import (
	"fmt"
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/mlmodel"
)

// Policy selects the provisioning strategy.
type Policy int

const (
	// ModelDriven uses the learned capacity model plus a workload
	// forecast at the boot-delay horizon (the SCADS design).
	ModelDriven Policy = iota
	// Reactive scales only on currently observed violations/underload
	// (the ablation baseline: no model, no forecast).
	Reactive
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case ModelDriven:
		return "model-driven"
	case Reactive:
		return "reactive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Actuator is the director's lever on cluster size. The simulated
// cloud (cloudsim.Cloud) implements it; a real cluster follows that
// fleet through the root package's LocalCluster.Resize, and a
// production deployment would call a cloud API.
type Actuator interface {
	// Running returns the number of serving instances.
	Running() int
	// Booting returns the number of instances still starting.
	Booting() int
	// Request starts n new instances.
	Request(n int)
	// Release stops n running instances.
	Release(n int)
}

// Observation is one interval's telemetry, produced by the SLA monitor
// and replication pump.
type Observation struct {
	// Rate is the observed request rate (req/s).
	Rate float64
	// CommittedServers is the capacity floor the currently committed
	// ranges demand (replication factor × data footprint): scale-down
	// may never size below what the stored data itself requires.
	CommittedServers int
	// Latency is the SLA-percentile latency.
	Latency time.Duration
	// SuccessRate is availability in percent.
	SuccessRate float64
	// SLAMet summarises whether the interval met the SLA.
	SLAMet bool
	// ReplicationAtRisk counts queued updates in danger of missing
	// their staleness deadline (§3.3.2's backlog signal).
	ReplicationAtRisk int
	// Contentions counts §3.3.1 requirement contentions this interval:
	// reads where the declared requirements were unsatisfiable at once
	// and the priority order had to sacrifice one. The paper requires
	// these failures be "noted and used as input to the manager
	// functions that re-provision the system".
	Contentions int
}

// Decision records what one control step decided, for logs and
// experiment output.
type Decision struct {
	At       time.Time
	Policy   Policy
	Observed Observation
	Forecast float64
	Target   int
	Running  int
	Booting  int
	Added    int
	Removed  int
	Reason   string
}

// Config tunes the director.
type Config struct {
	// SLALatency is the latency bound being defended.
	SLALatency time.Duration
	// ForecastHorizon is how far ahead demand is predicted; it should
	// cover instance boot delay plus a control interval (default 5m).
	ForecastHorizon time.Duration
	// MinServers floors the cluster size (default 1).
	MinServers int
	// MaxServers caps it (0 = uncapped).
	MaxServers int
	// Policy selects model-driven or reactive control.
	Policy Policy
}

const (
	// headroom is the spare capacity fraction kept when sizing.
	headroom = 0.2
	// scaleDownSlack is the hysteresis on release: servers go only
	// when the target is below running by at least this fraction.
	scaleDownSlack = 0.1
	// scaleDownCooldown is the minimum time between scale-down steps,
	// preventing thrash.
	scaleDownCooldown = 10 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.ForecastHorizon <= 0 {
		c.ForecastHorizon = 5 * time.Minute
	}
	if c.MinServers < 1 {
		c.MinServers = 1
	}
	return c
}

// Director is the Figure 2 controller.
type Director struct {
	cfg      Config
	clk      clock.Clock
	actuator Actuator

	Capacity   *mlmodel.CapacityModel
	Forecaster *mlmodel.Forecaster

	mu            sync.Mutex
	lastScaleDown time.Time
	decisions     []Decision
}

// New returns a director driving actuator under cfg.
func New(clk clock.Clock, actuator Actuator, cfg Config) *Director {
	cfg = cfg.withDefaults()
	return &Director{
		cfg:        cfg,
		clk:        clk,
		actuator:   actuator,
		Capacity:   &mlmodel.CapacityModel{},
		Forecaster: mlmodel.NewForecaster(),
	}
}

// Step runs one control interval: learn from obs, decide, actuate.
func (d *Director) Step(obs Observation) Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	running := d.actuator.Running()
	booting := d.actuator.Booting()

	// Learn — but never from saturated intervals: when the system is
	// shedding load, the observed (offered rate, timeout latency)
	// pair lies far off the queueing curve and would corrupt the
	// capacity fit (the same filtering the Bodík-style modelling work
	// applies to training data).
	if running > 0 && obs.Rate > 0 && obs.Latency > 0 {
		saturated := d.cfg.SLALatency > 0 && obs.Latency > 2*d.cfg.SLALatency
		if !saturated {
			d.Capacity.Observe(obs.Rate/float64(running), obs.Latency.Seconds())
		}
	}
	d.Forecaster.Observe(now, obs.Rate)

	dec := Decision{
		At:       now,
		Policy:   d.cfg.Policy,
		Observed: obs,
		Running:  running,
		Booting:  booting,
	}

	var target int
	switch d.cfg.Policy {
	case Reactive:
		target, dec.Reason = d.reactiveTarget(obs, running)
		dec.Forecast = obs.Rate
	default:
		target, dec.Forecast, dec.Reason = d.modelTarget(obs, running)
	}

	// The replication backlog signal adds capacity regardless of
	// policy: a growing at-risk queue means propagation bandwidth is
	// short (§3.3.2).
	if obs.ReplicationAtRisk > 0 {
		boost := 1 + obs.ReplicationAtRisk/1000
		target += boost
		dec.Reason += fmt.Sprintf("+repl-backlog(%d)", obs.ReplicationAtRisk)
	}

	// Requirement contentions (§3.3.1) are answered with extra
	// capacity: more replicas/bandwidth shortens the window in which
	// requirements are unsatisfiable. The operator-facing count is the
	// cluster's contention log.
	if obs.Contentions > 0 {
		target++
		dec.Reason += fmt.Sprintf("+contention(%d)", obs.Contentions)
	}

	if target < d.cfg.MinServers {
		target = d.cfg.MinServers
	}
	if target < obs.CommittedServers {
		// Whatever the models say, never size below what the committed
		// ranges need to stay fully replicated.
		target = obs.CommittedServers
	}
	if d.cfg.MaxServers > 0 && target > d.cfg.MaxServers {
		target = d.cfg.MaxServers
	}
	dec.Target = target

	have := running + booting
	switch {
	case target > have:
		dec.Added = target - have
		d.actuator.Request(dec.Added)
	case target < running:
		// Scale down, rate-limited and hysteretic.
		if now.Sub(d.lastScaleDown) < scaleDownCooldown {
			dec.Reason += "+cooldown-hold"
			break
		}
		slack := float64(running-target) / float64(running)
		if slack < scaleDownSlack {
			dec.Reason += "+hysteresis-hold"
			break
		}
		dec.Removed = running - target
		d.actuator.Release(dec.Removed)
		d.lastScaleDown = now
	}

	d.decisions = append(d.decisions, dec)
	if len(d.decisions) > 100000 {
		d.decisions = d.decisions[len(d.decisions)-50000:]
	}
	return dec
}

// modelTarget sizes the cluster by inverting the capacity model's
// fitted curve at the forecast demand; until the curve fits, the
// reactive baseline keeps the system controlled.
func (d *Director) modelTarget(obs Observation, running int) (int, float64, string) {
	now := d.clk.Now()
	forecast := d.Forecaster.Forecast(now, d.cfg.ForecastHorizon)
	demand := obs.Rate
	horizon := "current"
	if forecast > demand {
		demand = forecast
		horizon = "forecast"
	}
	curve, ok := d.Capacity.Curve()
	if !ok {
		t, r := d.reactiveTarget(obs, running)
		return t, forecast, "unfit:" + r
	}
	return curve.ServersNeeded(demand, d.cfg.SLALatency.Seconds(), headroom, running), forecast, "model:" + horizon
}

// reactiveTarget is the threshold baseline: scale up 25% on a
// violation, scale down 10% when latency is far under the bound.
func (d *Director) reactiveTarget(obs Observation, running int) (int, string) {
	switch {
	case !obs.SLAMet:
		step := running / 4
		if step < 1 {
			step = 1
		}
		return running + step, "reactive:violation"
	case d.cfg.SLALatency > 0 && obs.Latency > 0 && obs.Latency < d.cfg.SLALatency/3:
		step := (running + 9) / 10 // ceil(10%) so hysteresis can pass
		return running - step, "reactive:underload"
	default:
		return running, "reactive:steady"
	}
}

// Decisions returns a copy of the decision log.
func (d *Director) Decisions() []Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Decision(nil), d.decisions...)
}
