// Package sim is the experiment harness for the paper's elasticity
// story: it wires a workload trace, the utility-computing simulator,
// the SLA monitor, and the director's feedback loop (Figure 2) into a
// deterministic virtual-time simulation. Experiments E1 (Animoto
// scale-up), E2 (feedback-loop reaction), and E7 (diurnal scale-down
// economics) are parameterisations of this harness.
package sim

import (
	"fmt"
	"math"
	"time"

	"scads/internal/clock"
	"scads/internal/cloudsim"
	"scads/internal/consistency"
	"scads/internal/director"
	"scads/internal/sla"
	"scads/internal/workload"
)

// Mode selects the provisioning strategy under test.
type Mode int

// Modes: the SCADS director (model-driven), the reactive ablation, or
// a fixed-size baseline.
const (
	ModeModelDriven Mode = iota
	ModeReactive
	ModeStatic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeModelDriven:
		return "model-driven"
	case ModeReactive:
		return "reactive"
	case ModeStatic:
		return "static"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterises one run.
type Config struct {
	Start    time.Time
	Duration time.Duration
	// Tick is the control interval (default 1m).
	Tick time.Duration

	Trace   workload.Trace
	Service cloudsim.ServiceModel
	SLA     consistency.PerformanceSLA
	Cloud   cloudsim.Options

	Mode Mode
	// StaticServers sizes the fixed cluster in ModeStatic.
	StaticServers int
	// InitialServers seeds the elastic modes (default 2).
	InitialServers int
	// Director tunes the controller (SLALatency etc. filled from SLA).
	Director director.Config
	// Warmup pre-trains the capacity model from the service curve
	// before the run, modelling "models of past performance" (§2.2).
	Warmup bool
}

// TickStat is one control interval's record.
type TickStat struct {
	T           time.Time
	Rate        float64
	Running     int
	Booting     int
	Target      int
	Latency     time.Duration
	SuccessRate float64
	Met         bool
}

// Result summarises one run.
type Result struct {
	Mode         Mode
	Ticks        []TickStat
	MachineHours float64
	CostUSD      float64
	Violations   int
	Intervals    int
	PeakServers  int
	FinalServers int
}

// ViolationRate is the fraction of intervals that missed the SLA.
func (r Result) ViolationRate() float64 {
	if r.Intervals == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Intervals)
}

// Run executes the simulation.
func Run(cfg Config) Result {
	if cfg.Tick <= 0 {
		cfg.Tick = time.Minute
	}
	if cfg.InitialServers <= 0 {
		cfg.InitialServers = 2
	}
	clk := clock.NewVirtual(cfg.Start)
	cloud := cloudsim.New(clk, cfg.Cloud)
	// The latency window covers exactly one tick's batched samples
	// (RecordBatch feeds ≤64 per call, two calls per tick), so each
	// interval's percentile reflects that interval, not stale
	// overload samples from minutes ago.
	monitor := sla.NewMonitor(clk, cfg.SLA, 128)

	// Seed capacity.
	initial := cfg.InitialServers
	if cfg.Mode == ModeStatic {
		initial = cfg.StaticServers
	}
	cloud.Request(initial)
	clk.Advance(cfg.Cloud.BootDelay)
	cloud.Poll()
	monitor.Roll() // discard the boot period so interval rates are true

	var dir *director.Director
	if cfg.Mode != ModeStatic {
		dcfg := cfg.Director
		dcfg.SLALatency = cfg.SLA.LatencyBound
		if cfg.Mode == ModeReactive {
			dcfg.Policy = director.Reactive
		} else {
			dcfg.Policy = director.ModelDriven
		}
		if dcfg.ForecastHorizon <= 0 {
			// Provision ahead by boot delay plus two control ticks.
			dcfg.ForecastHorizon = cfg.Cloud.BootDelay + 2*cfg.Tick
		}
		dir = director.New(clk, &cloudActuator{cloud: cloud}, dcfg)
		if cfg.Warmup && cfg.Mode == ModeModelDriven {
			warmCapacityModel(dir, cfg.Service)
		}
	}

	res := Result{Mode: cfg.Mode}
	end := cfg.Start.Add(cfg.Duration)
	for clk.Now().Before(end) {
		now := clk.Now()
		cloud.Poll()
		booting, running, _ := cloud.Counts()
		rate := cfg.Trace.Rate(now)

		latency := cfg.Service.Latency(rate, running)
		successPct := cfg.Service.SuccessRate(rate, running)
		total := int64(rate * cfg.Tick.Seconds())
		succeeded := int64(float64(total) * successPct / 100)
		monitor.RecordBatch(succeeded, latency, true)
		monitor.RecordBatch(total-succeeded, latency, false)

		clk.Advance(cfg.Tick)
		iv := monitor.Roll()

		stat := TickStat{
			T: now, Rate: rate, Running: running,
			Booting: booting,
			Latency: iv.Latency, SuccessRate: iv.SuccessRate, Met: iv.Met,
		}
		if dir != nil {
			dec := dir.Step(director.Observation{
				Rate:        iv.Rate,
				Latency:     iv.Latency,
				SuccessRate: iv.SuccessRate,
				SLAMet:      iv.Met,
			})
			stat.Target = dec.Target
		} else {
			stat.Target = running
		}
		res.Ticks = append(res.Ticks, stat)
		res.Intervals++
		if !iv.Met {
			res.Violations++
		}
		if running > res.PeakServers {
			res.PeakServers = running
		}
		res.FinalServers = running
	}
	res.MachineHours = cloud.MachineHours()
	res.CostUSD = cloud.CostUSD()
	return res
}

// warmCapacityModel feeds the director's capacity model observations
// drawn from the service curve — the "past workload" the paper's
// models train on.
func warmCapacityModel(d *director.Director, svc cloudsim.ServiceModel) {
	for frac := 0.05; frac < 0.95; frac += 0.05 {
		rate := svc.CapacityPerServer * frac
		lat := svc.Latency(rate, 1)
		d.Capacity.Observe(rate, lat.Seconds())
	}
	d.Capacity.Fit()
}

// cloudActuator adapts the simulated cloud to the director's Actuator.
type cloudActuator struct {
	cloud *cloudsim.Cloud
}

// Running and Booting are asked several times a tick and need only
// counts; Cloud.Running/Booting would build and sort the id slice
// (4237 strings at Figure 1's peak) each time.
func (a *cloudActuator) Running() int { _, n, _ := a.cloud.Counts(); return n }
func (a *cloudActuator) Booting() int { n, _, _ := a.cloud.Counts(); return n }
func (a *cloudActuator) Request(n int) {
	a.cloud.Request(n)
}
func (a *cloudActuator) Release(n int) {
	running := a.cloud.Running()
	// Terminate the newest instances first (cheapest under hourly
	// billing: they have the least sunk partial hour — and it keeps
	// the oldest, warmest nodes serving).
	for i := 0; i < n && i < len(running); i++ {
		a.cloud.Terminate(running[len(running)-1-i])
	}
}

// ReactionStats measures how the loop responds to a load step: when
// the violation began, when the SLA was re-established, and the
// recovery duration. Used by E2.
type ReactionStats struct {
	ViolatedAt   time.Time
	RecoveredAt  time.Time
	Recovery     time.Duration
	EverViolated bool
	Recovered    bool
}

// MeasureReaction extracts reaction timing from a run's ticks after
// stepAt.
func MeasureReaction(res Result, stepAt time.Time) ReactionStats {
	var rs ReactionStats
	for _, tk := range res.Ticks {
		if tk.T.Before(stepAt) {
			continue
		}
		if !tk.Met && !rs.EverViolated {
			rs.EverViolated = true
			rs.ViolatedAt = tk.T
		}
		if rs.EverViolated && !rs.Recovered && tk.Met {
			rs.Recovered = true
			rs.RecoveredAt = tk.T
			rs.Recovery = tk.T.Sub(rs.ViolatedAt)
		}
	}
	return rs
}

// RequiredServers computes the ideal (oracle) server count for a rate
// under the service model at the SLA bound — the ground-truth curve
// experiments compare against.
func RequiredServers(svc cloudsim.ServiceModel, slaBound time.Duration, rate float64) int {
	if rate <= 0 {
		return 1
	}
	// Invert latency(ρ) = base + k·ρ/(1-ρ) at the SLA bound.
	d := slaBound.Seconds() - svc.Base.Seconds()
	if d <= 0 {
		return math.MaxInt32
	}
	k := svc.K.Seconds()
	rho := d / (k + d)
	per := rho * svc.CapacityPerServer
	n := int(math.Ceil(rate / per))
	if n < 1 {
		n = 1
	}
	return n
}
