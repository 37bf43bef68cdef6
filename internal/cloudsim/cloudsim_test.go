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

	granted := c.Request(3)
	if len(granted) != 3 {
		t.Fatalf("granted %d", len(granted))
	}
	if b, r, s := c.Counts(); b != 3 || r != 0 || s != 0 {
		t.Fatalf("counts = %d %d %d", b, r, s)
	}
	// Nothing ready before boot delay.
	vc.Advance(60 * time.Second)
	if ready := c.Poll(); len(ready) != 0 {
		t.Fatalf("ready early: %v", ready)
	}
	vc.Advance(31 * time.Second)
	ready := c.Poll()
	if len(ready) != 3 {
		t.Fatalf("ready = %v", ready)
	}
	if len(c.Running()) != 3 || len(c.Booting()) != 0 {
		t.Fatal("state transition failed")
	}

	c.Terminate(ready[0])
	inst, ok := c.Get(ready[0])
	if !ok || inst.State != StateTerminated {
		t.Fatalf("terminated instance = %+v", inst)
	}
	// Double terminate is a no-op.
	c.Terminate(ready[0])
	c.Fail(ready[1])
	if inst, _ := c.Get(ready[1]); inst.State != StateFailed {
		t.Fatal("Fail did not mark instance")
	}
	// Fail after terminate is a no-op.
	c.Fail(ready[0])
	if inst, _ := c.Get(ready[0]); inst.State != StateTerminated {
		t.Fatal("Fail overwrote terminated state")
	}
}

func TestBillingGranularity(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := New(vc, Options{BootDelay: time.Second, PricePerHour: 0.10, BillingGranularity: time.Hour})
	insts := c.Request(1)
	vc.Advance(90 * time.Minute) // 1.5h -> billed 2h
	c.Terminate(insts[0].ID)
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
		insts := c.Request(1)
		vc.Advance(61 * time.Minute)
		c.Terminate(insts[0].ID)
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

func TestInstanceStateString(t *testing.T) {
	for s, want := range map[InstanceState]string{
		StateBooting: "booting", StateRunning: "running",
		StateTerminated: "terminated", StateFailed: "failed",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
}
