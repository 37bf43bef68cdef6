package director

import (
	"strings"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/workload"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

// fakeActuator tracks requested/released capacity with instant boot.
type fakeActuator struct {
	running int
	booting int
}

func (f *fakeActuator) Running() int { return f.running }
func (f *fakeActuator) Booting() int { return f.booting }
func (f *fakeActuator) Request(n int) {
	f.booting += n
}
func (f *fakeActuator) Release(n int) {
	f.running -= n
	if f.running < 0 {
		f.running = 0
	}
}
func (f *fakeActuator) finishBoot() {
	f.running += f.booting
	f.booting = 0
}

func cfg(policy Policy) Config {
	return Config{
		SLALatency:      100 * time.Millisecond,
		ForecastHorizon: 5 * time.Minute,
		MinServers:      1,
		Policy:          policy,
	}
}

func TestReactiveScalesUpOnViolation(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 8}
	d := New(vc, act, cfg(Reactive))
	dec := d.Step(Observation{Rate: 1000, Latency: 500 * time.Millisecond, SuccessRate: 100, SLAMet: false})
	if dec.Added != 2 { // 25% of 8
		t.Fatalf("Added = %d, want 2", dec.Added)
	}
	if !strings.Contains(dec.Reason, "violation") {
		t.Fatalf("Reason = %q", dec.Reason)
	}
}

func TestReactiveScalesDownOnUnderload(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 20}
	d := New(vc, act, cfg(Reactive))
	vc.Advance(time.Hour) // past any cooldown
	dec := d.Step(Observation{Rate: 10, Latency: 5 * time.Millisecond, SuccessRate: 100, SLAMet: true})
	if dec.Removed != 2 { // 10% of 20
		t.Fatalf("Removed = %d, want 2: %+v", dec.Removed, dec)
	}
	if act.running != 18 {
		t.Fatalf("running = %d", act.running)
	}
}

func TestScaleDownCooldownPreventsThrash(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 20}
	d := New(vc, act, cfg(Reactive))
	vc.Advance(time.Hour)
	obs := Observation{Rate: 10, Latency: 5 * time.Millisecond, SuccessRate: 100, SLAMet: true}
	first := d.Step(obs)
	if first.Removed == 0 {
		t.Fatal("first scale-down blocked")
	}
	vc.Advance(time.Minute) // within cooldown
	second := d.Step(obs)
	if second.Removed != 0 {
		t.Fatalf("scale-down inside cooldown: %+v", second)
	}
	if !strings.Contains(second.Reason, "cooldown") {
		t.Fatalf("Reason = %q", second.Reason)
	}
	vc.Advance(11 * time.Minute)
	third := d.Step(obs)
	if third.Removed == 0 {
		t.Fatal("scale-down after cooldown blocked")
	}
}

func TestMinServersFloor(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 2}
	c := cfg(Reactive)
	c.MinServers = 2
	d := New(vc, act, c)
	vc.Advance(time.Hour)
	dec := d.Step(Observation{Rate: 0, Latency: time.Millisecond, SuccessRate: 100, SLAMet: true})
	if dec.Target < 2 || act.running < 2 {
		t.Fatalf("floor violated: %+v running=%d", dec, act.running)
	}
}

func TestMaxServersCap(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 10}
	c := cfg(Reactive)
	c.MaxServers = 12
	d := New(vc, act, c)
	dec := d.Step(Observation{Rate: 1e6, Latency: time.Second, SLAMet: false})
	if dec.Target > 12 {
		t.Fatalf("cap violated: %+v", dec)
	}
}

func TestReplicationBacklogBoost(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	d := New(vc, act, cfg(Reactive))
	dec := d.Step(Observation{Rate: 100, Latency: 10 * time.Millisecond, SuccessRate: 100, SLAMet: true,
		ReplicationAtRisk: 2500})
	// Steady reactive target would be ≤ running; the backlog boost of
	// 1+2500/1000 = 3 must push the target above the current size.
	if dec.Target <= 4 || dec.Added == 0 {
		t.Fatalf("backlog boost missing: %+v", dec)
	}
	if !strings.Contains(dec.Reason, "repl-backlog") {
		t.Fatalf("Reason = %q", dec.Reason)
	}
}

// curveLatency is the ground-truth server curve the synthetic
// telemetry below is generated from: base+k·ρ/(1-ρ) with base 5ms,
// k 20ms and capacity 1000/s, at a rate per server.
func curveLatency(ratePerServer float64) time.Duration {
	rho := ratePerServer / 1000
	return 5*time.Millisecond + time.Duration(float64(20*time.Millisecond)*rho/(1-rho))
}

// stepCurve feeds one interval of telemetry on the true curve: total
// rate spread over the running fleet, then the booting capacity joins.
func stepCurve(d *Director, act *fakeActuator, rate float64) Decision {
	dec := d.Step(Observation{Rate: rate, Latency: curveLatency(rate / float64(act.running)), SuccessRate: 100, SLAMet: true})
	act.finishBoot()
	return dec
}

// trainModel feeds the director observations until the capacity model
// fits.
func trainModel(t *testing.T, d *Director, act *fakeActuator, vc *clock.Virtual) {
	t.Helper()
	for i := 0; i < 40; i++ {
		rate := 100 + float64(i)*20 // per server, ramping to 880
		stepCurve(d, act, rate*float64(act.running))
		vc.Advance(30 * time.Second)
	}
	if _, ok := d.Capacity.Curve(); !ok {
		t.Fatal("capacity model did not fit during training")
	}
}

func TestModelDrivenProvisionsAheadOfRamp(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	c := cfg(ModelDriven)
	c.ForecastHorizon = 10 * time.Minute
	d := New(vc, act, c)
	trainModel(t, d, act, vc)

	// Now drive a steep ramp: rate grows 20%/minute. The model-driven
	// director should provision for the *forecast* rate, i.e. target
	// more servers than current load alone would need.
	rate := 1000.0
	var lastDec Decision
	for i := 0; i < 15; i++ {
		lastDec = d.Step(Observation{Rate: rate, Latency: 50 * time.Millisecond, SuccessRate: 100, SLAMet: true})
		act.finishBoot()
		vc.Advance(time.Minute)
		rate *= 1.2
	}
	if lastDec.Forecast <= lastDec.Observed.Rate {
		t.Fatalf("forecast (%v) did not exceed current rate (%v) on a ramp", lastDec.Forecast, lastDec.Observed.Rate)
	}
	if !strings.Contains(lastDec.Reason, "forecast") {
		t.Fatalf("Reason = %q", lastDec.Reason)
	}
	// Target must cover the forecast at the learned per-server
	// capacity, not just current load.
	curve, _ := d.Capacity.Curve()
	perServer := curve.UsableRate(0.1, 0.2)
	needCurrent := int(lastDec.Observed.Rate/perServer) + 1
	if lastDec.Target <= needCurrent {
		t.Fatalf("target %d does not provision ahead (current need %d)", lastDec.Target, needCurrent)
	}
}

func TestFleetScaleUpOnForecastBreach(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	c := cfg(ModelDriven)
	c.ForecastHorizon = 10 * time.Minute
	d := New(vc, act, c)
	trainModel(t, d, act, vc)
	// A short trend window lets the forecast follow the ramp rather
	// than the training history.
	d.Forecaster.TrendWindow = 5 * time.Minute

	// Demand ramps 15%/minute from half the fleet's usable rate, on the
	// true curve. Every interval still meets the SLA — the director
	// must provision on the forecast breach, before the violation
	// materialises.
	curve, _ := d.Capacity.Curve()
	rate := 0.5 * float64(act.running) * curve.UsableRate(0.1, headroom)
	added := 0
	var last Decision
	for i := 0; i < 15; i++ {
		if l := curveLatency(rate / float64(act.running)); l > 100*time.Millisecond {
			t.Fatalf("step %d: latency %v breached the SLA before capacity came", i, l)
		}
		last = stepCurve(d, act, rate)
		added += last.Added
		vc.Advance(time.Minute)
		rate *= 1.15
	}
	if added == 0 {
		t.Fatal("no capacity added ahead of the ramp")
	}
	if last.Forecast <= last.Observed.Rate {
		t.Fatalf("forecast %v did not lead the ramp (rate %v)", last.Forecast, last.Observed.Rate)
	}
	if !strings.Contains(last.Reason, "model:forecast") {
		t.Fatalf("Reason = %q, want model:forecast", last.Reason)
	}
	// The sizing must cover the forecast at the curve as learned by
	// now: target ≥ forecast / usable-per-server.
	curve, _ = d.Capacity.Curve()
	if need := int(last.Forecast / curve.UsableRate(0.1, headroom)); last.Target < need {
		t.Fatalf("target %d below forecast need %d", last.Target, need)
	}
}

func TestFleetScaleDownCooldownRespected(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 12}
	d := New(vc, act, cfg(ModelDriven))
	d.Forecaster.TrendWindow = 5 * time.Minute
	trainModel(t, d, act, vc)

	// Demand collapses to ~2 servers' worth. Let the forecast adapt,
	// then expect exactly one release per cooldown window.
	curve, _ := d.Capacity.Curve()
	low := 1.5 * curve.UsableRate(0.1, headroom)
	var first, inside, after Decision
	for i := 0; i < 10; i++ {
		first = stepCurve(d, act, low)
		if first.Removed > 0 {
			break
		}
		vc.Advance(time.Minute)
	}
	if first.Removed == 0 {
		t.Fatalf("no scale-down on collapsed demand: %+v", first)
	}
	vc.Advance(time.Minute)
	inside = stepCurve(d, act, low)
	if inside.Removed != 0 || !strings.Contains(inside.Reason, "cooldown-hold") {
		t.Fatalf("release inside cooldown: %+v", inside)
	}
	vc.Advance(11 * time.Minute)
	after = stepCurve(d, act, low)
	if after.Removed == 0 {
		t.Fatalf("release after cooldown blocked: %+v", after)
	}
}

func TestFleetHysteresisNoFlapOnNoisyTrace(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 10}
	d := New(vc, act, cfg(ModelDriven))
	// A long trend window smooths symmetric noise out of the forecast;
	// what remains tests the scale-down hysteresis proper.
	d.Forecaster.TrendWindow = 30 * time.Minute
	trainModel(t, d, act, vc)

	// A ±5% noisy trace straddling the learned 10-server boundary keeps
	// nudging the target between 10 and 11; hysteresis must absorb it —
	// after the settle window (which also flushes the training ramp from
	// the forecaster), zero adds and removes.
	curve, _ := d.Capacity.Curve()
	trace := workload.Noisy{T: workload.Constant(10 * curve.UsableRate(0.1, headroom)), Seed: 17, Frac: 0.05}
	settle := 0
	flaps, holds := 0, 0
	for i := 0; i < 240; i++ {
		dec := stepCurve(d, act, trace.Rate(vc.Now()))
		vc.Advance(time.Minute)
		if i < 45 {
			settle = act.running
			continue
		}
		if dec.Added > 0 || dec.Removed > 0 {
			flaps++
		}
		if strings.Contains(dec.Reason, "hysteresis-hold") {
			holds++
		}
	}
	if flaps > 0 {
		t.Fatalf("%d scale actions on a noisy steady trace (settled at %d servers)", flaps, settle)
	}
	if holds == 0 {
		t.Fatal("hysteresis never engaged — the trace did not test it")
	}
}

func TestFleetCommittedFloorBlocksScaleDown(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 12}
	d := New(vc, act, cfg(ModelDriven))
	d.Forecaster.TrendWindow = 5 * time.Minute
	trainModel(t, d, act, vc)
	if act.running <= 5 {
		t.Fatalf("training left %d servers: the floor below would block nothing", act.running)
	}

	// Near-zero demand, but the committed ranges still need 5 nodes to
	// hold replication factor: the target may never go below 5.
	for i := 0; i < 30; i++ {
		dec := d.Step(Observation{
			Rate:             50,
			Latency:          curveLatency(50 / float64(act.running)),
			SuccessRate:      100,
			SLAMet:           true,
			CommittedServers: 5,
		})
		act.finishBoot()
		if dec.Target < 5 {
			t.Fatalf("target %d below committed floor at step %d", dec.Target, i)
		}
		vc.Advance(2 * time.Minute)
	}
	if act.running != 5 {
		t.Fatalf("running = %d, want exactly the committed floor 5", act.running)
	}
}

// TestFleetBootingPreventsDoubleProvision: while requested capacity is
// still booting, an identical forecast breach must not request again.
func TestFleetBootingPreventsDoubleProvision(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	d := New(vc, act, cfg(ModelDriven))
	trainModel(t, d, act, vc)

	// Twice what the running fleet serves at the learned curve.
	curve, _ := d.Capacity.Curve()
	surge := 2 * float64(act.running) * curve.UsableRate(0.1, headroom)
	obs := Observation{Rate: surge, Latency: 50 * time.Millisecond, SuccessRate: 100, SLAMet: true}
	first := d.Step(obs)
	if first.Added == 0 {
		t.Fatal("surge did not provision")
	}
	// Boot has not finished: booting counts toward `have`, so the same
	// surge must not double-provision.
	vc.Advance(time.Minute)
	second := d.Step(obs)
	if second.Added != 0 {
		t.Fatalf("double-provision while booting: %+v (booting=%d)", second, act.booting)
	}
	act.finishBoot()
}

func TestModelDrivenFallsBackWhenUnfit(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	d := New(vc, act, cfg(ModelDriven))
	dec := d.Step(Observation{Rate: 100, Latency: time.Second, SLAMet: false})
	if !strings.Contains(dec.Reason, "unfit") {
		t.Fatalf("Reason = %q", dec.Reason)
	}
	if dec.Added == 0 {
		t.Fatal("unfit director ignored a violation")
	}
}

func TestDecisionsLogged(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 1}
	d := New(vc, act, cfg(Reactive))
	for i := 0; i < 5; i++ {
		d.Step(Observation{Rate: 10, Latency: time.Millisecond, SuccessRate: 100, SLAMet: true})
	}
	if got := len(d.Decisions()); got != 5 {
		t.Fatalf("decisions = %d", got)
	}
}

func TestPolicyString(t *testing.T) {
	if ModelDriven.String() != "model-driven" || Reactive.String() != "reactive" {
		t.Fatal("Policy strings")
	}
}

func TestContentionSignalBoostsTargetAndIsNoted(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	d := New(vc, act, cfg(Reactive))
	// 50ms is inside the steady band (between SLALatency/3 and the
	// bound), so without the contention signal the target would stay
	// at running.
	dec := d.Step(Observation{
		Rate: 10, Latency: 50 * time.Millisecond, SuccessRate: 90, SLAMet: true,
		Contentions: 3,
	})
	if !strings.Contains(dec.Reason, "contention(3)") {
		t.Fatalf("Reason = %q, want contention annotation", dec.Reason)
	}
	if dec.Target <= 4 {
		t.Fatalf("Target = %d, want boost above running", dec.Target)
	}
	dec = d.Step(Observation{Rate: 10, Latency: time.Millisecond, SLAMet: true, Contentions: 2})
	if !strings.Contains(dec.Reason, "contention(2)") {
		t.Fatalf("Reason = %q, want the second interval's contentions", dec.Reason)
	}
}

func TestNoContentionNoAnnotation(t *testing.T) {
	vc := clock.NewVirtual(t0)
	act := &fakeActuator{running: 4}
	d := New(vc, act, cfg(Reactive))
	dec := d.Step(Observation{Rate: 10, Latency: time.Millisecond, SuccessRate: 100, SLAMet: true})
	if strings.Contains(dec.Reason, "contention") {
		t.Fatalf("Reason = %q, want no contention annotation", dec.Reason)
	}
}
