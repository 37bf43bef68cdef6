package cloudsim

import (
	"math"
	"testing"
	"time"

	"scads/internal/clock"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func TestInstanceLifecycle(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := New(vc, Options{BootDelay: 90 * time.Second})

	c.Request(3)
	if c.Booting() != 3 || c.Running() != 0 {
		t.Fatalf("after request: booting %d running %d", c.Booting(), c.Running())
	}
	// Nothing ready before boot delay.
	vc.Advance(60 * time.Second)
	c.Poll()
	if c.Running() != 0 {
		t.Fatalf("%d running early", c.Running())
	}
	// Past the delay an instance serves only once a Poll has seen it.
	vc.Advance(31 * time.Second)
	if c.Booting() != 3 {
		t.Fatalf("booting = %d before the poll", c.Booting())
	}
	c.Poll()
	if c.Running() != 3 || c.Booting() != 0 {
		t.Fatalf("after boot: booting %d running %d", c.Booting(), c.Running())
	}

	// Release stops running instances only, newest first, and never
	// more than there are.
	c.Request(1)
	c.Release(2)
	if c.Running() != 1 || c.Booting() != 1 {
		t.Fatalf("after release: booting %d running %d", c.Booting(), c.Running())
	}
	c.Release(5)
	if c.Running() != 0 || c.Booting() != 1 {
		t.Fatalf("after over-release: booting %d running %d", c.Booting(), c.Running())
	}
	// A stopped instance does not come back.
	vc.Advance(time.Hour)
	c.Poll()
	if c.Running() != 1 {
		t.Fatalf("running = %d, want only the late request", c.Running())
	}
}

// TestReleaseStopsNewestFirst tells which instance Release stopped by
// what each goes on to cost.
func TestReleaseStopsNewestFirst(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := New(vc, Options{BootDelay: time.Second, BillingGranularity: time.Hour})
	c.Request(1)
	vc.Advance(50 * time.Minute)
	c.Request(1)
	vc.Advance(5 * time.Minute)
	c.Poll()
	c.Release(1)
	vc.Advance(30 * time.Minute)
	// The old instance runs on, 85 min -> 2h; the new one stopped after
	// 5 min -> 1h. Had the old one stopped, both would bill 1h.
	if got := c.MachineHours(); got != 3 {
		t.Fatalf("MachineHours = %v, want 3", got)
	}
}

func TestBillingGranularity(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := New(vc, Options{BootDelay: time.Second, PricePerHour: 0.10, BillingGranularity: time.Hour})
	c.Request(1)
	vc.Advance(90 * time.Minute) // 1.5h -> billed 2h
	c.Poll()
	c.Release(1)
	vc.Advance(3 * time.Hour) // a stopped instance accrues nothing
	if got := c.MachineHours(); got != 2 {
		t.Fatalf("MachineHours = %v, want 2 (ceil to hour)", got)
	}
	if got := c.CostUSD(); math.Abs(got-0.20) > 1e-9 {
		t.Fatalf("CostUSD = %v", got)
	}
}

func TestFineGrainedBillingSavesMoney(t *testing.T) {
	// The paper's §1 argument: finer billing granularity means
	// scale-down actually saves money.
	run := func(gran time.Duration) float64 {
		vc := clock.NewVirtual(t0)
		c := New(vc, Options{BillingGranularity: gran, PricePerHour: 0.10})
		c.Request(1)
		vc.Advance(61 * time.Minute)
		c.Poll()
		c.Release(1)
		return c.CostUSD()
	}
	hourly := run(time.Hour)
	perMinute := run(time.Minute)
	if perMinute >= hourly {
		t.Fatalf("per-minute billing (%v) not cheaper than hourly (%v)", perMinute, hourly)
	}
}

func TestRunningInstancesAccrue(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := New(vc, Options{BillingGranularity: time.Minute})
	c.Request(2)
	vc.Advance(30 * time.Minute)
	if got := c.MachineHours(); math.Abs(got-1.0) > 1e-9 { // 2 × 0.5h
		t.Fatalf("MachineHours = %v, want 1.0", got)
	}
}

func TestServiceModelLatencyCurve(t *testing.T) {
	sm := ServiceModel{CapacityPerServer: 1000, Base: 5 * time.Millisecond, K: 20 * time.Millisecond}
	low := sm.Latency(100, 1)  // 10% utilisation
	mid := sm.Latency(500, 1)  // 50%
	high := sm.Latency(900, 1) // 90%
	if !(low < mid && mid < high) {
		t.Fatalf("latency curve not increasing: %v %v %v", low, mid, high)
	}
	// Saturation: large but finite.
	sat := sm.Latency(2000, 1)
	if sat < time.Second {
		t.Fatalf("saturated latency = %v", sat)
	}
	// More servers -> lower latency at the same aggregate rate.
	if sm.Latency(900, 2) >= high {
		t.Fatal("adding a server did not reduce latency")
	}
	// Zero servers.
	if sm.Latency(1, 0) < time.Second {
		t.Fatal("zero servers should saturate")
	}
}

func TestServiceModelSuccessRate(t *testing.T) {
	sm := ServiceModel{CapacityPerServer: 1000}
	if sm.SuccessRate(500, 1) != 100 {
		t.Fatal("under capacity should be 100%")
	}
	if got := sm.SuccessRate(2000, 1); got != 50 {
		t.Fatalf("2x overload success = %v, want 50", got)
	}
	if sm.SuccessRate(1, 0) != 0 {
		t.Fatal("zero servers should be 0%")
	}
}

// TestServeAndProfile: Serve is the curve at one point, and Profile
// walks one server up its utilisation range without reaching
// saturation.
func TestServeAndProfile(t *testing.T) {
	sm := ServiceModel{CapacityPerServer: 1000, Base: 5 * time.Millisecond, K: 20 * time.Millisecond}
	l := sm.Serve(1500, 3)
	if l.Rate != 1500 || l.Latency != sm.Latency(1500, 3) || l.SuccessPct != 100 {
		t.Fatalf("Serve = %+v", l)
	}
	profile := sm.Profile()
	if len(profile) < 8 {
		t.Fatalf("profile has %d points", len(profile))
	}
	for i, p := range profile {
		if p.Rate <= 0 || p.Rate >= sm.CapacityPerServer || p.Latency != sm.Latency(p.Rate, 1) {
			t.Fatalf("profile[%d] = %+v", i, p)
		}
		if i > 0 && p.Rate <= profile[i-1].Rate {
			t.Fatalf("profile not increasing at %d", i)
		}
	}
}

// mixModel is the one curve a fixed request mix stands for: each class
// costs demand[c] server-seconds per op, so at the mix's shares an op
// costs D̄ on average and the queueing latency base + D̄/(1−ρ) is
// Base = base + D̄, K = D̄, one server saturating at 1/D̄ req/s.
func mixModel(demand, rates map[string]float64, base time.Duration) ServiceModel {
	var rate, work float64
	for c, r := range rates {
		rate += r
		work += r * demand[c]
	}
	mean := work / rate
	d := time.Duration(mean * float64(time.Second))
	return ServiceModel{CapacityPerServer: 1 / mean, Base: base + d, K: d}
}

var classDemand = map[string]float64{"read": 0.002, "write": 0.008}

// TestClassServiceModelClosedForm: at a fixed read/write mix the single
// curve reproduces the per-class queueing closed form.
func TestClassServiceModelClosedForm(t *testing.T) {
	// rho = (400·0.002 + 100·0.008) / 4 = 0.4; mean demand = 1.6/500 =
	// 0.0032; latency = base + 0.0032/(1-0.4).
	rates := map[string]float64{"read": 400, "write": 100}
	s := mixModel(classDemand, rates, 5*time.Millisecond)
	if rho := 500 / (s.CapacityPerServer * 4); rho < 0.4-1e-12 || rho > 0.4+1e-12 {
		t.Fatalf("rho = %v, want 0.4", rho)
	}
	queue := 0.0032 / 0.6
	want := 5*time.Millisecond + time.Duration(queue*float64(time.Second))
	if got := s.Latency(500, 4); got != want {
		t.Fatalf("latency = %v, want %v", got, want)
	}
	if sr := s.SuccessRate(500, 4); sr != 100 {
		t.Fatalf("below saturation success = %v, want 100", sr)
	}
}

// TestClassServiceModelSaturation: the mix's curve times out and sheds
// load past saturation exactly as the per-class form does.
func TestClassServiceModelSaturation(t *testing.T) {
	over := map[string]float64{"read": 1000} // 2 server-seconds/s of work
	s := mixModel(classDemand, over, 5*time.Millisecond)
	if lat := s.Latency(1000, 1); lat != 10*time.Second {
		t.Fatalf("saturated latency = %v, want 10s", lat)
	}
	if sr := s.SuccessRate(1000, 1); sr != 50 {
		t.Fatalf("shed success at rho=2 = %v, want 50", sr)
	}
	if lat := s.Latency(1000, 0); lat != 10*time.Second {
		t.Fatalf("zero servers latency = %v, want 10s", lat)
	}
	if sr := s.SuccessRate(1000, 0); sr != 0 {
		t.Fatalf("zero servers success = %v, want 0", sr)
	}
}

// TestClassServiceModelMixMatters: at the same aggregate rate a heavier
// write mix costs more per op, so its curve saturates sooner and is
// slower — the mix fixes which curve a deployment runs on.
func TestClassServiceModelMixMatters(t *testing.T) {
	readHeavy := mixModel(classDemand, map[string]float64{"read": 900, "write": 100}, 5*time.Millisecond)
	writeHeavy := mixModel(classDemand, map[string]float64{"read": 100, "write": 900}, 5*time.Millisecond)
	if readHeavy.CapacityPerServer <= writeHeavy.CapacityPerServer {
		t.Fatalf("write-heavy mix should saturate sooner: read-heavy %v/s write-heavy %v/s",
			readHeavy.CapacityPerServer, writeHeavy.CapacityPerServer)
	}
	if lr, lw := readHeavy.Latency(1000, 10), writeHeavy.Latency(1000, 10); lr >= lw {
		t.Fatalf("write-heavy mix should be slower: %v vs %v", lr, lw)
	}
}
