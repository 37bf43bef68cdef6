package mlmodel

import (
	"math"
	"sync"
	"time"
)

// Forecaster predicts near-future workload from its recent history so
// the director can start instances *before* load arrives (boot delay
// makes purely reactive scaling violate SLAs — §2.1, §3.3.2). It
// extrapolates a linear trend fitted over a sliding window.
type Forecaster struct {
	// TrendWindow is how much history feeds the linear trend.
	// NewForecaster sets 30 minutes.
	TrendWindow time.Duration

	mu      sync.Mutex
	samples []loadSample
}

type loadSample struct {
	t    time.Time
	load float64
}

// NewForecaster returns a forecaster with the default trend window.
func NewForecaster() *Forecaster {
	return &Forecaster{TrendWindow: 30 * time.Minute}
}

// Observe records the workload level at time t.
func (f *Forecaster) Observe(t time.Time, load float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.samples = append(f.samples, loadSample{t, load})
	// Trim to 48h of history.
	cutoff := t.Add(-48 * time.Hour)
	i := 0
	for i < len(f.samples) && f.samples[i].t.Before(cutoff) {
		i++
	}
	f.samples = f.samples[i:]
}

// Forecast predicts the load at now+horizon. Falls back to the latest
// observation when history is too thin, and to 0 with no history.
func (f *Forecaster) Forecast(now time.Time, horizon time.Duration) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.samples) == 0 {
		return 0
	}
	trend := f.trendForecast(now, horizon)
	if math.IsNaN(trend) {
		trend = f.samples[len(f.samples)-1].load
	}
	if trend < 0 {
		trend = 0
	}
	return trend
}

func (f *Forecaster) trendForecast(now time.Time, horizon time.Duration) float64 {
	cutoff := now.Add(-f.TrendWindow)
	var xs [][]float64
	var ys []float64
	for _, s := range f.samples {
		if s.t.Before(cutoff) {
			continue
		}
		xs = append(xs, []float64{s.t.Sub(cutoff).Seconds()})
		ys = append(ys, s.load)
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		return math.NaN()
	}
	return m.Predict([]float64{now.Add(horizon).Sub(cutoff).Seconds()})
}
