package sim

import (
	"testing"
	"time"

	"scads/internal/cloudsim"
	"scads/internal/consistency"
	"scads/internal/replication"
	"scads/internal/workload"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func paperSLA() consistency.PerformanceSLA {
	return consistency.PerformanceSLA{Percentile: 99.9, LatencyBound: 100 * time.Millisecond, SuccessRate: 99.9}
}

func svc() cloudsim.ServiceModel {
	return cloudsim.ServiceModel{
		CapacityPerServer: 1000,
		Base:              5 * time.Millisecond,
		K:                 30 * time.Millisecond,
	}
}

func baseConfig(tr workload.Trace, mode Mode) Config {
	return Config{
		Start:    t0,
		Duration: 6 * time.Hour,
		Tick:     time.Minute,
		Trace:    tr,
		Service:  svc(),
		SLA:      paperSLA(),
		Cloud:    cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10, BillingGranularity: time.Hour},
		Mode:     mode,
		Warmup:   true,
	}
}

func TestStaticModeHoldsSize(t *testing.T) {
	cfg := baseConfig(workload.Constant(2000), ModeStatic)
	cfg.StaticServers = 5
	res := Run(cfg)
	if res.PeakServers != 5 || res.FinalServers != 5 {
		t.Fatalf("static run changed size: peak=%d final=%d", res.PeakServers, res.FinalServers)
	}
	if res.ViolationRate() > 0.01 {
		t.Fatalf("well-provisioned static cluster violated %.1f%%", 100*res.ViolationRate())
	}
}

func TestUnderprovisionedStaticViolates(t *testing.T) {
	cfg := baseConfig(workload.Constant(5000), ModeStatic)
	cfg.StaticServers = 2 // 2500 req/s per server >> capacity
	res := Run(cfg)
	if res.ViolationRate() < 0.9 {
		t.Fatalf("overloaded cluster only violated %.1f%%", 100*res.ViolationRate())
	}
}

func TestModelDrivenTracksViralRamp(t *testing.T) {
	// A compressed Animoto-style ramp: load doubles every 45 minutes
	// for 6 hours (64x growth).
	tr := workload.Viral{Start: t0, InitialRate: 1000, DoublingTime: 45 * time.Minute}
	cfg := baseConfig(tr, ModeModelDriven)
	cfg.InitialServers = 3
	res := Run(cfg)

	finalRate := tr.Rate(t0.Add(6 * time.Hour))
	need := RequiredServers(svc(), paperSLA().LatencyBound, finalRate)
	if res.FinalServers < need*7/10 {
		t.Fatalf("final servers %d nowhere near required %d", res.FinalServers, need)
	}
	// The defining claim: the elastic cluster follows the ramp with a
	// low violation rate despite 64x growth.
	if res.ViolationRate() > 0.15 {
		t.Fatalf("model-driven violation rate %.1f%%", 100*res.ViolationRate())
	}
	// Server count grew monotonically-ish: peak >> initial.
	if res.PeakServers < 10*cfg.InitialServers {
		t.Fatalf("peak %d did not track 64x load growth", res.PeakServers)
	}
}

func TestModelDrivenBeatsReactiveOnRamp(t *testing.T) {
	tr := workload.Viral{Start: t0, InitialRate: 1000, DoublingTime: 45 * time.Minute}
	md := Run(baseConfig(tr, ModeModelDriven))
	re := Run(baseConfig(tr, ModeReactive))
	// The paper's argument for ML-driven provisioning: predicting
	// demand at the boot-delay horizon avoids the violations a purely
	// reactive controller eats while instances boot.
	if md.ViolationRate() >= re.ViolationRate() {
		t.Fatalf("model-driven (%.1f%%) not better than reactive (%.1f%%)",
			100*md.ViolationRate(), 100*re.ViolationRate())
	}
}

func TestScaleDownSavesMoney(t *testing.T) {
	// Diurnal day: elastic vs static-peak provisioning (E7's shape).
	tr := workload.Diurnal{Base: 3000, Amplitude: 2500, PeakHour: 14}
	cfg := baseConfig(tr, ModeModelDriven)
	cfg.Duration = 24 * time.Hour
	cfg.Cloud.BillingGranularity = time.Minute
	cfg.Director.ScaleDownCooldown = 5 * time.Minute
	elastic := Run(cfg)

	peakNeed := RequiredServers(svc(), paperSLA().LatencyBound, 5500)
	scfg := baseConfig(tr, ModeStatic)
	scfg.Duration = 24 * time.Hour
	scfg.Cloud.BillingGranularity = time.Minute
	scfg.StaticServers = peakNeed
	static := Run(scfg)

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
	// A 4x step at hour 2: reactive mode must violate then recover.
	stepAt := t0.Add(2 * time.Hour)
	tr := workload.Spike{
		Baseline:  workload.Constant(1500),
		At:        stepAt,
		Rise:      time.Minute,
		Duration:  3 * time.Hour,
		Magnitude: 4,
	}
	cfg := baseConfig(tr, ModeReactive)
	cfg.InitialServers = 3
	res := Run(cfg)
	rs := MeasureReaction(res, stepAt)
	if !rs.EverViolated {
		t.Fatal("4x step caused no violation in reactive mode")
	}
	if !rs.Recovered {
		t.Fatal("reactive mode never recovered")
	}
	if rs.Recovery <= 0 || rs.Recovery > 2*time.Hour {
		t.Fatalf("recovery = %v", rs.Recovery)
	}
}

func TestRequiredServers(t *testing.T) {
	s := svc()
	if RequiredServers(s, 100*time.Millisecond, 0) != 1 {
		t.Fatal("zero rate needs 1 server")
	}
	// Asymptotically linear (ceil effects dominate at small n).
	n10 := RequiredServers(s, 100*time.Millisecond, 10_000)
	n100 := RequiredServers(s, 100*time.Millisecond, 100_000)
	ratio := float64(n100) / float64(n10)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("scaling not linear: %d vs %d", n10, n100)
	}
	// Impossible SLA.
	if RequiredServers(s, time.Millisecond, 1000) < 1<<30 {
		t.Fatal("impossible SLA should need effectively infinite servers")
	}
}

func TestModeString(t *testing.T) {
	if ModeModelDriven.String() != "model-driven" || ModeReactive.String() != "reactive" || ModeStatic.String() != "static" {
		t.Fatal("Mode strings")
	}
}

func TestRunE8DeadlineProtectsTightBounds(t *testing.T) {
	start := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	dl := RunE8(replication.ByDeadline, start)
	ff := RunE8(replication.FIFO, start)

	// Both disciplines deliver the same volume; only lateness differs.
	if dl.Delivered == 0 || dl.Delivered != ff.Delivered {
		t.Fatalf("delivered: deadline=%d fifo=%d", dl.Delivered, ff.Delivered)
	}
	// The deadline queue protects the tight class entirely; FIFO,
	// blind to deadlines, burns thousands of tight-bound deadlines.
	if dl.TightViolations != 0 {
		t.Fatalf("deadline discipline violated %d tight bounds", dl.TightViolations)
	}
	if ff.TightViolations == 0 {
		t.Fatal("FIFO should violate tight bounds under overload")
	}
	// Neither class's 60s bound is violated: the burst backlog drains
	// well within a minute.
	if dl.LooseViolations != 0 || ff.LooseViolations != 0 {
		t.Fatalf("loose violations: deadline=%d fifo=%d", dl.LooseViolations, ff.LooseViolations)
	}
	if ff.MaxTightStale <= dl.MaxTightStale {
		t.Fatalf("max tight staleness: fifo %v should exceed deadline %v",
			ff.MaxTightStale, dl.MaxTightStale)
	}
	// Determinism: a rerun is bit-identical.
	if again := RunE8(replication.ByDeadline, start); again != dl {
		t.Fatalf("RunE8 not deterministic: %+v vs %+v", again, dl)
	}
}
