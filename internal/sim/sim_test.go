package sim_test

import (
	"strings"
	"testing"
	"time"

	"scads"
	"scads/internal/cloudsim"
	"scads/internal/director"
	"scads/internal/sim"
	"scads/internal/workload"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

const slaBound = 100 * time.Millisecond

func svc() cloudsim.ServiceModel {
	return cloudsim.ServiceModel{
		CapacityPerServer: 1000,
		Base:              5 * time.Millisecond,
		K:                 30 * time.Millisecond,
	}
}

// baseConfig is six hours of tr on the single service curve; dcfg nil
// runs no director.
func baseConfig(tr workload.Trace, dcfg *director.Config) sim.Config {
	return sim.Config{
		Start:    t0,
		Duration: 6 * time.Hour,
		Tick:     time.Minute,
		Trace:    tr,
		Service:  svc(),
		Cloud:    cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10, BillingGranularity: time.Hour},
		Director: dcfg,
	}
}

// ramp is a compressed Animoto-style ramp: load doubles every 45
// minutes for six hours (64x growth).
var ramp = workload.Viral{Start: t0, InitialRate: 1000, DoublingTime: 45 * time.Minute}

// TestElasticLoopConfigurations drives the one loop through every kind
// of run it has: no director, each director policy on a service
// curve, and the model-driven director with a real cluster following
// the fleet. The bookkeeping every Result must satisfy is checked on
// all of them; what each configuration is for is checked per row.
func TestElasticLoopConfigurations(t *testing.T) {
	results := map[string]sim.Result{}
	cases := []struct {
		name string
		run  func(t *testing.T) sim.Result
		// reason prefixes every decision's Reason; "" wants no decisions.
		reason string
		check  func(t *testing.T, res sim.Result)
	}{
		{
			name: "no director",
			run: func(*testing.T) sim.Result {
				cfg := baseConfig(workload.Constant(2000), nil)
				cfg.InitialServers = 5
				return sim.Run(cfg)
			},
			check: func(t *testing.T, res sim.Result) {
				if res.PeakServers != 5 || res.FinalServers != 5 {
					t.Fatalf("fleet changed size: peak=%d final=%d", res.PeakServers, res.FinalServers)
				}
				if res.ViolationRate() > 0.01 {
					t.Fatalf("well-provisioned fleet violated %.1f%%", 100*res.ViolationRate())
				}
			},
		},
		{
			name: "no director, overloaded",
			run: func(*testing.T) sim.Result {
				cfg := baseConfig(workload.Constant(5000), nil) // 2500 req/s per server >> capacity
				return sim.Run(cfg)
			},
			check: func(t *testing.T, res sim.Result) {
				if res.PeakServers != 2 {
					t.Fatalf("default fleet = %d servers, want 2", res.PeakServers)
				}
				if res.ViolationRate() < 0.9 {
					t.Fatalf("overloaded fleet only violated %.1f%%", 100*res.ViolationRate())
				}
			},
		},
		{
			name:   "reactive",
			reason: "reactive:",
			run: func(*testing.T) sim.Result {
				return sim.Run(baseConfig(ramp, &director.Config{Policy: director.Reactive}))
			},
			check: func(t *testing.T, res sim.Result) {
				if res.PeakServers <= 2 {
					t.Fatal("reactive policy never scaled up")
				}
			},
		},
		{
			name:   "model-driven, single curve",
			reason: "model:",
			run: func(*testing.T) sim.Result {
				cfg := baseConfig(ramp, &director.Config{})
				cfg.InitialServers = 3
				return sim.Run(cfg)
			},
			check: func(t *testing.T, res sim.Result) {
				need := sim.RequiredServers(svc(), ramp.Rate(t0.Add(6*time.Hour)))
				if res.FinalServers < need*7/10 {
					t.Fatalf("final servers %d nowhere near required %d", res.FinalServers, need)
				}
				// The defining claim: the elastic fleet follows the ramp
				// with a low violation rate despite 64x growth.
				if res.ViolationRate() > 0.15 {
					t.Fatalf("violation rate %.1f%%", 100*res.ViolationRate())
				}
				if res.PeakServers < 30 {
					t.Fatalf("peak %d did not track 64x load growth", res.PeakServers)
				}
			},
		},
		{
			name:   "model-driven, real cluster",
			reason: "model:",
			run: func(t *testing.T) sim.Result {
				// The flash crowd compressed into 150 minutes, with a
				// shifting hotspot under the writers.
				sc := scads.ElasticFlashCrowdScenario()
				sc.Duration = 150 * time.Minute
				sc.ShiftPeriod = 20 * time.Minute
				sc.Trace = workload.Spike{
					Baseline:  workload.Constant(500),
					At:        sc.Start.Add(25 * time.Minute),
					Rise:      10 * time.Minute,
					Duration:  30 * time.Minute,
					Magnitude: 4,
				}
				res, err := scads.RunElasticScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				if res.AckedWrites == 0 || res.LostWrites != 0 || res.CorruptReads != 0 {
					t.Fatalf("ledger: %d acked, %d lost, %d corrupt", res.AckedWrites, res.LostWrites, res.CorruptReads)
				}
				return res.Result
			},
			check: func(t *testing.T, res sim.Result) {
				if res.PeakServers <= 3 || res.FinalServers >= res.PeakServers {
					t.Fatalf("fleet did not follow the surge up and back: peak=%d final=%d", res.PeakServers, res.FinalServers)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(t)
			results[tc.name] = res
			checkBookkeeping(t, res)
			if tc.reason == "" && res.Decisions != nil {
				t.Fatalf("a run with no director logged %d decisions", len(res.Decisions))
			}
			for i, dec := range res.Decisions {
				if !strings.HasPrefix(dec.Reason, tc.reason) {
					t.Fatalf("decision %d: reason %q, want %q…", i, dec.Reason, tc.reason)
				}
			}
			tc.check(t, res)
		})
	}

	// The paper's argument for ML-driven provisioning: predicting demand
	// at the boot-delay horizon avoids the violations a purely reactive
	// controller eats while instances boot.
	md, re := results["model-driven, single curve"], results["reactive"]
	if md.ViolationRate() >= re.ViolationRate() {
		t.Fatalf("model-driven (%.1f%%) not better than reactive (%.1f%%) on the same ramp",
			100*md.ViolationRate(), 100*re.ViolationRate())
	}
}

// checkBookkeeping holds for every run: one tick per minute from the
// moment the seed fleet is up, one decision per tick when a director
// runs, and the summary fields agree with the ticks they summarise.
func checkBookkeeping(t *testing.T, res sim.Result) {
	t.Helper()
	if len(res.Ticks) == 0 {
		t.Fatal("no ticks")
	}
	if res.Decisions != nil && len(res.Decisions) != len(res.Ticks) {
		t.Fatalf("%d decisions over %d ticks", len(res.Decisions), len(res.Ticks))
	}
	peak, violations, hours := 0, 0, 0.0
	for i, tk := range res.Ticks {
		if i > 0 && tk.T.Sub(res.Ticks[i-1].T) != time.Minute {
			t.Fatalf("tick %d at %v, previous at %v", i, tk.T, res.Ticks[i-1].T)
		}
		if tk.Running > peak {
			peak = tk.Running
		}
		if !tk.Met {
			violations++
		}
		hours += float64(tk.Running) / 60
		switch {
		case res.Decisions == nil && tk.Target != tk.Running:
			t.Fatalf("tick %d: no director, yet target %d with %d running", i, tk.Target, tk.Running)
		case res.Decisions != nil && (tk.Target != res.Decisions[i].Target || tk.Running != res.Decisions[i].Running):
			t.Fatalf("tick %d = %+v disagrees with decision %+v", i, tk, res.Decisions[i])
		}
	}
	last := res.Ticks[len(res.Ticks)-1]
	if res.PeakServers != peak || res.FinalServers != last.Running || res.Violations != violations {
		t.Fatalf("summary peak=%d final=%d violations=%d; ticks say %d, %d, %d",
			res.PeakServers, res.FinalServers, res.Violations, peak, last.Running, violations)
	}
	if d := res.ServerHours - hours; d > 1e-6 || d < -1e-6 {
		t.Fatalf("ServerHours = %v, ticks integrate to %v", res.ServerHours, hours)
	}
	// The bill runs from request, boot time included, and rounds up.
	if res.MachineHours < res.ServerHours || res.CostUSD <= 0 {
		t.Fatalf("billed %v machine-hours ($%v) for %v server-hours", res.MachineHours, res.CostUSD, res.ServerHours)
	}
}

// TestRunStartsTheTraceOneBootDelayIn pins when the first interval
// begins: the seed fleet is requested at Start and serves from
// Start+BootDelay, and the run ends at Start+Duration.
func TestRunStartsTheTraceOneBootDelayIn(t *testing.T) {
	cfg := baseConfig(workload.Constant(1000), nil)
	cfg.Duration = 10 * time.Minute
	res := sim.Run(cfg)
	if first := res.Ticks[0]; !first.T.Equal(t0.Add(90*time.Second)) || first.Running != 2 || first.Booting != 0 {
		t.Fatalf("first tick = %+v", first)
	}
	if len(res.Ticks) != 9 { // 1:30, 2:30, … 9:30
		t.Fatalf("%d ticks in ten minutes", len(res.Ticks))
	}
}

// TestOnTickSeesTheServingFleet: the hook runs once per interval,
// before its telemetry, with the fleet size the interval is served by.
func TestOnTickSeesTheServingFleet(t *testing.T) {
	cfg := baseConfig(ramp, &director.Config{})
	cfg.Duration = time.Hour
	var at []time.Time
	var sizes []int
	cfg.OnTick = func(now time.Time, running int) {
		at = append(at, now)
		sizes = append(sizes, running)
	}
	res := sim.Run(cfg)
	if len(at) != len(res.Ticks) {
		t.Fatalf("hook ran %d times over %d ticks", len(at), len(res.Ticks))
	}
	for i, tk := range res.Ticks {
		if !at[i].Equal(tk.T) || sizes[i] != tk.Running {
			t.Fatalf("tick %d: hook saw (%v, %d), tick records (%v, %d)", i, at[i], sizes[i], tk.T, tk.Running)
		}
	}
}

func TestScaleDownSavesMoney(t *testing.T) {
	// Diurnal day: elastic vs static-peak provisioning (E7's shape).
	tr := workload.Diurnal{Base: 3000, Amplitude: 2500, PeakHour: 14}
	cfg := baseConfig(tr, &director.Config{})
	cfg.Duration = 24 * time.Hour
	cfg.Cloud.BillingGranularity = time.Minute
	elastic := sim.Run(cfg)

	cfg.Director = nil
	cfg.InitialServers = sim.RequiredServers(svc(), 5500)
	static := sim.Run(cfg)

	if elastic.CostUSD >= static.CostUSD {
		t.Fatalf("elastic ($%.2f) not cheaper than static peak ($%.2f)",
			elastic.CostUSD, static.CostUSD)
	}
	if elastic.ViolationRate() > 0.15 {
		t.Fatalf("elastic violations %.1f%% too high", 100*elastic.ViolationRate())
	}
	// Cluster actually shrank at night.
	minServers := elastic.PeakServers
	for _, tk := range elastic.Ticks {
		if tk.Running > 0 && tk.Running < minServers {
			minServers = tk.Running
		}
	}
	if minServers >= elastic.PeakServers {
		t.Fatal("cluster never scaled down")
	}
}

func TestMeasureReaction(t *testing.T) {
	// A 4x step at hour 2: the reactive policy must violate then recover.
	stepAt := t0.Add(2 * time.Hour)
	tr := workload.Spike{
		Baseline:  workload.Constant(1500),
		At:        stepAt,
		Rise:      time.Minute,
		Duration:  3 * time.Hour,
		Magnitude: 4,
	}
	cfg := baseConfig(tr, &director.Config{Policy: director.Reactive})
	cfg.InitialServers = 3
	res := sim.Run(cfg)
	rs := sim.MeasureReaction(res, stepAt)
	if !rs.EverViolated {
		t.Fatal("4x step caused no violation under the reactive policy")
	}
	if !rs.Recovered {
		t.Fatal("reactive policy never recovered")
	}
	if rs.Recovery <= 0 || rs.Recovery > 2*time.Hour {
		t.Fatalf("recovery = %v", rs.Recovery)
	}
}

func TestRequiredServers(t *testing.T) {
	s := svc()
	if sim.RequiredServers(s, 0) != 1 {
		t.Fatal("zero rate needs 1 server")
	}
	// Asymptotically linear (ceil effects dominate at small n).
	n10 := sim.RequiredServers(s, 10_000)
	n100 := sim.RequiredServers(s, 100_000)
	ratio := float64(n100) / float64(n10)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("scaling not linear: %d vs %d", n10, n100)
	}
	// An SLA the idle latency already misses.
	s.Base = slaBound
	if sim.RequiredServers(s, 1000) < 1<<30 {
		t.Fatal("impossible SLA should need effectively infinite servers")
	}
}
