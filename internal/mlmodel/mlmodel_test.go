package mlmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestFitLinearExact(t *testing.T) {
	// y = 2x + 3 exactly.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, []float64{float64(i)})
		ys = append(ys, 2*float64(i)+3)
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 1e-9 || math.Abs(m.Intercept-3) > 1e-9 {
		t.Fatalf("fit = %+v", m)
	}
	if got := m.Predict([]float64{100}); math.Abs(got-203) > 1e-6 {
		t.Fatalf("Predict(100) = %v", got)
	}
}

func TestFitLinearMultivariate(t *testing.T) {
	// y = 1.5a - 2b + 0.5 with noise.
	r := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 500; i++ {
		a, b := r.Float64()*10, r.Float64()*10
		xs = append(xs, []float64{a, b})
		ys = append(ys, 1.5*a-2*b+0.5+r.NormFloat64()*0.01)
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-1.5) > 0.01 || math.Abs(m.Coef[1]+2) > 0.01 {
		t.Fatalf("coefs = %v", m.Coef)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitLinear([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
	// Collinear features → singular.
	xs := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	ys := []float64{1, 2, 3, 4}
	if _, err := FitLinear(xs, ys); err == nil {
		t.Fatal("singular design accepted")
	}
	// Ragged rows.
	if _, err := FitLinear([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestWindowQuantile(t *testing.T) {
	w := NewWindow(100)
	if !math.IsNaN(w.Quantile(0.5)) {
		t.Fatal("empty window should be NaN")
	}
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	if got := w.Quantile(0.5); got != 50 {
		t.Fatalf("median = %v", got)
	}
	if got := w.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := w.Quantile(1.0); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	// Ring behaviour: adding 100 more evicts the old ones.
	for i := 101; i <= 200; i++ {
		w.Add(float64(i))
	}
	if got := w.Quantile(0.0); got != 101 {
		t.Fatalf("min after wrap = %v", got)
	}
	if w.Len() != 100 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestWindowQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		q1 = math.Mod(math.Abs(q1), 1)
		q2 = math.Mod(math.Abs(q2), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		w := NewWindow(len(vals))
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
			w.Add(v)
		}
		return w.Quantile(q1) <= w.Quantile(q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// synthLatency produces latency from a known queueing curve.
func synthLatency(rate, capacity, base, k float64) float64 {
	rho := rate / capacity
	return base + k*rho/(1-rho)
}

func TestCapacityModelRecoversCurve(t *testing.T) {
	const capacity, base, k = 1000.0, 0.005, 0.020
	m := &CapacityModel{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		rate := 50 + r.Float64()*850 // up to 90% utilisation
		lat := synthLatency(rate, capacity, base, k) * (1 + r.NormFloat64()*0.02)
		m.Observe(rate, lat)
	}
	c, ok := m.Curve()
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(c.Capacity-capacity)/capacity > 0.25 {
		t.Fatalf("capacity = %v, want ~%v", c.Capacity, capacity)
	}
	if math.Abs(c.Base-base) > 0.01 {
		t.Fatalf("base = %v, want ~%v", c.Base, base)
	}

	// Predicted latency increases with rate and blows up near capacity.
	if l200, l800 := c.Latency(200), c.Latency(800); !(l200 < l800) {
		t.Fatalf("latency not increasing: %v vs %v", l200, l800)
	}
	if !math.IsInf(c.Latency(c.Capacity*1.1), 1) {
		t.Fatal("saturated rate should predict +Inf")
	}

	// The usable rate at a 100ms SLA is below raw capacity but
	// positive; ServersNeeded scales linearly.
	usable := c.UsableRate(0.100, 0.2)
	if usable <= 0 || usable >= capacity {
		t.Fatalf("usable = %v", usable)
	}
	if n := c.ServersNeeded(usable*3, 0.100, 0.2, 1); n != 3 {
		t.Fatalf("ServersNeeded = %d, want 3", n)
	}
}

func TestCapacityModelFallbacks(t *testing.T) {
	m := &CapacityModel{}
	if _, ok := m.Curve(); ok {
		t.Fatal("fit with no data succeeded")
	}
	// Bad samples are ignored.
	m.Observe(-5, 1)
	m.Observe(5, -1)
	m.Observe(5, math.NaN())
	if len(m.rate) != 0 {
		t.Fatal("bad samples recorded")
	}
	// Unachievable SLA: no usable rate, so sizing returns the caller's
	// fallback, floored at one server.
	for i := 0; i < 50; i++ {
		m.Observe(float64(i+1)*10, synthLatency(float64(i+1)*10, 1000, 0.5, 0.1))
	}
	c, ok := m.Curve()
	if !ok {
		t.Fatal("fit failed")
	}
	if c.UsableRate(0.001, 0) != 0 {
		t.Fatal("unachievable SLA returned capacity")
	}
	if got := c.ServersNeeded(1000, 0.001, 0.2, 7); got != 7 {
		t.Fatalf("fallback ServersNeeded = %d", got)
	}
	if got := c.ServersNeeded(1000, 0.001, 0.2, 0); got != 1 {
		t.Fatalf("fallback floor = %d", got)
	}
}

func TestForecasterTrend(t *testing.T) {
	f := NewForecaster()
	t0 := time.Date(2009, 1, 4, 12, 0, 0, 0, time.UTC)
	// Load ramps 100 req/s per minute.
	for i := 0; i <= 30; i++ {
		f.Observe(t0.Add(time.Duration(i)*time.Minute), float64(1000+100*i))
	}
	now := t0.Add(30 * time.Minute)
	got := f.Forecast(now, 10*time.Minute)
	want := 1000.0 + 100*40
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("Forecast = %v, want ~%v", got, want)
	}
}

func TestForecasterEmptyAndThin(t *testing.T) {
	f := NewForecaster()
	if got := f.Forecast(time.Now(), time.Minute); got != 0 {
		t.Fatalf("empty forecast = %v", got)
	}
	t0 := time.Date(2009, 1, 4, 12, 0, 0, 0, time.UTC)
	f.Observe(t0, 500)
	if got := f.Forecast(t0, time.Minute); got != 500 {
		t.Fatalf("single-sample forecast = %v", got)
	}
}

func TestForecasterNeverNegative(t *testing.T) {
	f := NewForecaster()
	t0 := time.Date(2009, 1, 4, 12, 0, 0, 0, time.UTC)
	// Steeply falling load.
	for i := 0; i <= 10; i++ {
		f.Observe(t0.Add(time.Duration(i)*time.Minute), float64(1000-100*i))
	}
	if got := f.Forecast(t0.Add(10*time.Minute), 30*time.Minute); got < 0 {
		t.Fatalf("negative forecast: %v", got)
	}
}

func TestForecasterHistoryTrimmed(t *testing.T) {
	f := NewForecaster()
	t0 := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 100; h++ {
		f.Observe(t0.Add(time.Duration(h)*time.Hour), 100)
	}
	if len(f.samples) > 49 {
		t.Fatalf("history not trimmed: %d", len(f.samples))
	}
}

func BenchmarkWindowQuantile(b *testing.B) {
	w := NewWindow(1000)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		w.Add(r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(r.Float64())
		_ = w.Quantile(0.999)
	}
}

func BenchmarkCapacityFit(b *testing.B) {
	m := &CapacityModel{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		rate := 50 + r.Float64()*850
		m.Observe(rate, synthLatency(rate, 1000, 0.005, 0.02))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(500, 0.01) // invalidate
		if _, ok := m.Curve(); !ok {
			b.Fatal("fit failed")
		}
	}
}
