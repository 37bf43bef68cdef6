package scads

import (
	"reflect"
	"testing"
	"time"

	"scads/internal/workload"
)

// shortElasticScenario compresses the flash-crowd shape into a
// 150-minute run with a shifting hotspot, so unit tests exercise both
// scale directions and writer-vs-migration interleaving quickly.
func shortElasticScenario() ElasticScenario {
	return ElasticScenario{
		Name: "short-spike", Seed: 42, ShiftPeriod: 20 * time.Minute,
		Config: elasticConfig(150*time.Minute, workload.Spike{
			Baseline:  workload.Constant(500),
			At:        elasticStart.Add(25 * time.Minute),
			Rise:      10 * time.Minute,
			Duration:  30 * time.Minute,
			Magnitude: 4,
		}, 3),
	}
}

// TestElasticTelemetryIsTheClassClosedForm pins the scenarios' one
// curve to the read/write form it stands for: reads at 2ms and writes
// at 8ms of server time, a tenth of the rate writes, over a 5ms base,
// so latency = 5ms + 2.6ms/(1−ρ) until the servers saturate at ρ ≥ 0.99
// and requests time out at 10s.
func TestElasticTelemetryIsTheClassClosedForm(t *testing.T) {
	const servers = 4
	rate := func(rho float64) float64 { // the 90/10 rate loading servers to rho
		return rho * servers / (0.9*0.002 + 0.1*0.008)
	}
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		want := 5*time.Millisecond + time.Duration(0.0026/(1-rho)*float64(time.Second))
		got := elasticTelemetry.Latency(rate(rho), servers)
		if d := got - want; d < -2 || d > 2 {
			t.Errorf("ρ=%v: latency %v, want %v", rho, got, want)
		}
		if sr := elasticTelemetry.SuccessRate(rate(rho), servers); sr != 100 {
			t.Errorf("ρ=%v: success %v%%, want 100", rho, sr)
		}
	}
	for _, rho := range []float64{0.99, 1, 2} {
		if got := elasticTelemetry.Latency(rate(rho), servers); got != 10*time.Second {
			t.Errorf("ρ=%v: latency %v, want the 10s timeout", rho, got)
		}
	}
	if sr := elasticTelemetry.SuccessRate(rate(2), servers); sr < 49.99 || sr > 50.01 {
		t.Errorf("ρ=2: success %v%%, want half the load shed", sr)
	}
}

// TestElasticScenarioEndToEnd runs the full loop — trace → SLO
// telemetry → model-driven director → real node adds/decommissions
// — under a concurrent writer, and checks the paper's core claims:
// capacity follows the surge up and back down, and no acked write is
// lost or corrupted across any scale event.
func TestElasticScenarioEndToEnd(t *testing.T) {
	sc := shortElasticScenario()
	res, err := RunElasticScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The trace begins at Start, the cluster being up already.
	if len(res.Ticks) != 150 || !res.Ticks[0].T.Equal(sc.Start) || res.Ticks[0].Running != 3 {
		t.Fatalf("%d ticks, the first %+v; want 150 from %v on 3 servers", len(res.Ticks), res.Ticks[0], sc.Start)
	}
	ups, downs := 0, 0
	for _, dec := range res.Decisions {
		if dec.Added > 0 {
			ups++
		}
		if dec.Removed > 0 {
			downs++
		}
	}
	if ups == 0 || res.PeakServers <= 3 {
		t.Fatalf("surge did not scale up: %d scale-ups, peak %d", ups, res.PeakServers)
	}
	if downs == 0 || res.FinalServers >= res.PeakServers {
		t.Fatalf("decay did not scale down: %d scale-downs, final %d of peak %d", downs, res.FinalServers, res.PeakServers)
	}
	if res.AckedWrites < 300 {
		t.Fatalf("only %d acked writes — the run proved too little", res.AckedWrites)
	}
	if res.LostWrites != 0 || res.CorruptReads != 0 {
		t.Fatalf("lossless migration violated: %d lost, %d corrupt of %d acked",
			res.LostWrites, res.CorruptReads, res.AckedWrites)
	}
	if res.ServerHours <= 0 {
		t.Fatalf("accounting empty: %v server-hours", res.ServerHours)
	}
}

// TestElasticScenarioDeterministicMetrics runs the same scenario
// twice: every control-plane metric must match bit for bit — that is
// what makes the e16 baselines gateable in CI. (Ledger counts are
// wall-clock dependent and excluded; their zero-ness is checked
// above.)
func TestElasticScenarioDeterministicMetrics(t *testing.T) {
	sc := shortElasticScenario()
	a, err := RunElasticScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunElasticScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatalf("metrics not deterministic:\n  first  %+v\n  second %+v", a.Result, b.Result)
	}
}
