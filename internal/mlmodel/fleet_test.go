package mlmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthFleetLatency produces the closed-form queueing latency for
// per-class per-server rates under known per-class demands.
func synthFleetLatency(rates, demand map[string]float64) float64 {
	var rho, x float64
	for c, r := range rates {
		rho += r * demand[c]
		x += r
	}
	return (rho / x) / (1 - rho)
}

func trainFleet(f *FleetModel, demand map[string]float64, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// Random mix and intensity, capped below saturation.
		rates := map[string]float64{
			"read":  50 + r.Float64()*250,
			"write": 5 + r.Float64()*45,
		}
		if ρ := rates["read"]*demand["read"] + rates["write"]*demand["write"]; ρ >= 0.9 {
			continue
		}
		f.Observe(rates, synthFleetLatency(rates, demand))
	}
}

func TestFleetModelRecoversPerClassDemand(t *testing.T) {
	// Known per-op cost curve: reads 2ms, writes 8ms of server time.
	demand := map[string]float64{"read": 0.002, "write": 0.008}
	f := &FleetModel{}
	trainFleet(f, demand, 100, 1)
	if !f.Fit() {
		t.Fatal("Fit failed")
	}
	for c, want := range demand {
		if got := f.demand[c]; math.Abs(got-want)/want > 0.05 {
			t.Fatalf("demand[%s] = %v, want ~%v", c, got, want)
		}
	}
}

func TestFleetModelUsableClosedForm(t *testing.T) {
	// Single class: demand D → with SLA L and headroom h the usable
	// per-server rate is (1-h)·(1-D/L)/D, analytically.
	const D, L, h = 0.004, 0.100, 0.2
	f := &FleetModel{}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		x := 10 + r.Float64()*200
		f.Observe(map[string]float64{"op": x}, (x*D/x)/(1-x*D))
	}
	want := (1 - h) * (1 - D/L) / D
	got := f.UsablePerServer(map[string]float64{"op": 1}, L, h)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("UsablePerServer = %v, want ~%v", got, want)
	}
	// Unachievable SLA: bound below the bare service time.
	if f.UsablePerServer(map[string]float64{"op": 1}, D/2, 0) != 0 {
		t.Fatal("unachievable SLA returned capacity")
	}
}

func TestFleetModelServersMonotoneInLoad(t *testing.T) {
	demand := map[string]float64{"read": 0.002, "write": 0.008}
	f := &FleetModel{}
	trainFleet(f, demand, 100, 3)
	if !f.Fit() {
		t.Fatal("Fit failed")
	}
	mix := map[string]float64{"read": 9, "write": 1}
	prop := func(a, b float64) bool {
		ra := math.Abs(math.Mod(a, 1e6))
		rb := math.Abs(math.Mod(b, 1e6))
		if ra > rb {
			ra, rb = rb, ra
		}
		// Monotone: more offered load never needs fewer servers.
		return f.ServersNeeded(ra, mix, 0.1, 0.2, 1) <= f.ServersNeeded(rb, mix, 0.1, 0.2, 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFleetModelNeverBelowCommittedFloor(t *testing.T) {
	demand := map[string]float64{"read": 0.002, "write": 0.008}
	f := &FleetModel{}
	trainFleet(f, demand, 100, 4)
	mix := map[string]float64{"read": 1}
	prop := func(rate float64, floor int) bool {
		rate = math.Abs(math.Mod(rate, 1e6))
		floor = floor % 64
		want := floor
		if want < 1 {
			want = 1
		}
		// Never below the committed-ranges floor, fit or not.
		return f.ServersNeeded(rate, mix, 0.1, 0.2, floor) >= want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Unfit model falls back to the floor exactly.
	unfit := &FleetModel{}
	if got := unfit.ServersNeeded(1e5, mix, 0.1, 0.2, 7); got != 7 {
		t.Fatalf("unfit fallback = %d, want 7", got)
	}
}

func TestFleetModelRejectsBadSamples(t *testing.T) {
	f := &FleetModel{}
	f.Observe(nil, 0.01)
	f.Observe(map[string]float64{"read": -5}, 0.01)
	f.Observe(map[string]float64{"read": 5}, -1)
	f.Observe(map[string]float64{"read": 5}, math.NaN())
	if len(f.obs) != 0 {
		t.Fatalf("bad samples recorded: %d", len(f.obs))
	}
	if f.Fit() {
		t.Fatal("Fit succeeded with no data")
	}
}

func TestFleetModelUnknownClassNotFree(t *testing.T) {
	demand := map[string]float64{"read": 0.004}
	f := &FleetModel{}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		x := 10 + r.Float64()*180
		f.Observe(map[string]float64{"read": x}, synthFleetLatency(map[string]float64{"read": x}, demand))
	}
	known := f.ServersNeeded(10000, map[string]float64{"read": 1}, 0.1, 0.2, 1)
	novel := f.ServersNeeded(10000, map[string]float64{"scan": 1}, 0.1, 0.2, 1)
	if novel < known {
		t.Fatalf("unknown class sized cheaper than known: %d < %d", novel, known)
	}
}
