// Package sim is the one elastic control loop (the paper's Figure 2):
// a workload trace drives synthetic telemetry through the SLA monitor,
// the director observes each interval and sizes the fleet, and the
// simulated cloud charges boot delay and machine-hours for what it
// decides — all on a virtual clock, so a run replays bit for bit.
// Experiments e1 (Animoto scale-up), e2 (reaction to a load step), e7
// (diurnal scale-down economics) and e16 (the same loop with a real
// cluster following the fleet) are parameterisations of Run.
package sim

import (
	"math"
	"time"

	"scads/internal/clock"
	"scads/internal/cloudsim"
	"scads/internal/consistency"
	"scads/internal/director"
	"scads/internal/sla"
	"scads/internal/workload"
)

// paperSLA is the requirement every run defends: the paper's running
// example, 99.9% of requests under 100ms at 99.9% availability.
var paperSLA = consistency.PerformanceSLA{Percentile: 99.9, LatencyBound: 100 * time.Millisecond, SuccessRate: 99.9}

// Config parameterises one run.
type Config struct {
	// Start is when the seed fleet is requested: it boots for
	// Cloud.BootDelay, so the first control interval begins that much
	// later. The run ends at Start+Duration.
	Start    time.Time
	Duration time.Duration
	// Tick is the control interval (default 1m).
	Tick time.Duration

	Trace workload.Trace
	// Service is the telemetry source: the synthetic service curve that
	// stands in for measuring real requests. Its Profile is the
	// one-server history the director's capacity model is trained on
	// before the run.
	Service cloudsim.ServiceModel
	Cloud   cloudsim.Options

	// InitialServers is the seed fleet (default 2) — and the whole
	// fleet of a run with no director.
	InitialServers int
	// Director is the controller's policy and bounds; the loop fills in
	// the SLA bound and a forecast horizon of one boot delay plus two
	// ticks. nil runs no director: the statically provisioned baseline.
	Director *director.Config
	// OnTick, if set, runs at the start of every control interval with
	// the serving fleet size, after booted instances joined it: the
	// place a caller with real nodes behind the simulated fleet resizes
	// them to match and does its per-interval work.
	OnTick func(now time.Time, running int)
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
	Ticks []TickStat
	// Decisions is the director's log, one per tick (nil without one).
	Decisions []director.Decision
	// MachineHours and CostUSD are what the cloud bills: request to
	// release, rounded up to the billing granularity. ServerHours is
	// the serving fleet integrated over the run.
	MachineHours float64
	CostUSD      float64
	ServerHours  float64
	Violations   int
	PeakServers  int
	FinalServers int
}

// ViolationRate is the fraction of intervals that missed the SLA.
func (r Result) ViolationRate() float64 {
	if len(r.Ticks) == 0 {
		return 0
	}
	return float64(r.Violations) / float64(len(r.Ticks))
}

// Run executes the loop.
func Run(cfg Config) Result {
	if cfg.Tick <= 0 {
		cfg.Tick = time.Minute
	}
	if cfg.InitialServers <= 0 {
		cfg.InitialServers = 2
	}
	clk := clock.NewVirtual(cfg.Start)
	cloud := cloudsim.New(clk, cfg.Cloud)
	cloud.Request(cfg.InitialServers)
	clk.Advance(cfg.Cloud.BootDelay)
	// The first interval opens once the seed fleet is up. The latency
	// window is pinned by the exact baselines: a batch feeds at most 64
	// samples, so the percentile covers the last two intervals.
	monitor := sla.NewMonitor(clk, paperSLA, 128)

	var dir *director.Director
	if cfg.Director != nil {
		dcfg := *cfg.Director
		dcfg.SLALatency = paperSLA.LatencyBound
		dcfg.ForecastHorizon = cfg.Cloud.BootDelay + 2*cfg.Tick
		dir = director.New(clk, cloud, dcfg)
		for _, past := range cfg.Service.Profile() {
			dir.Capacity.Observe(past.Rate, past.Latency.Seconds())
		}
	}

	var res Result
	for end := cfg.Start.Add(cfg.Duration); clk.Now().Before(end); {
		now := clk.Now()
		cloud.Poll()
		running := cloud.Running()
		stat := TickStat{T: now, Rate: cfg.Trace.Rate(now), Running: running, Booting: cloud.Booting(), Target: running}
		if cfg.OnTick != nil {
			cfg.OnTick(now, running)
		}

		load := cfg.Service.Serve(stat.Rate, running)
		total := int64(load.Rate * cfg.Tick.Seconds())
		succeeded := int64(float64(total) * load.SuccessPct / 100)
		monitor.RecordBatch(succeeded, load.Latency, true)
		monitor.RecordBatch(total-succeeded, load.Latency, false)
		clk.Advance(cfg.Tick)
		iv := monitor.Roll()
		stat.Latency, stat.SuccessRate, stat.Met = iv.Latency, iv.SuccessRate, iv.Met

		if dir != nil {
			obs := director.Observation{Rate: iv.Rate, Latency: iv.Latency, SuccessRate: iv.SuccessRate, SLAMet: iv.Met}
			stat.Target = dir.Step(obs).Target
		}
		res.Ticks = append(res.Ticks, stat)
		if !iv.Met {
			res.Violations++
		}
		if running > res.PeakServers {
			res.PeakServers = running
		}
		res.FinalServers = running
		res.ServerHours += float64(running) * cfg.Tick.Hours()
	}
	if dir != nil {
		res.Decisions = dir.Decisions()
	}
	res.MachineHours = cloud.MachineHours()
	res.CostUSD = cloud.CostUSD()
	return res
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
// under the service model at the SLA's latency bound — the ground-truth
// curve experiments compare against. An SLA the idle latency already
// misses needs more servers than any fleet has.
func RequiredServers(svc cloudsim.ServiceModel, rate float64) int {
	return svc.Curve().ServersNeeded(rate, paperSLA.LatencyBound.Seconds(), 0, math.MaxInt32)
}
