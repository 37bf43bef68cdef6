package mlmodel

import (
	"math"
	"sync"
)

// CapacityModel learns how many requests per second one server can
// sustain while meeting the latency SLA, from (per-server rate,
// observed latency) pairs. It fits the open-queueing curve
//
//	latency(ρ) = base + k · ρ/(1-ρ),   ρ = rate/capacity
//
// by profiling over candidate capacities, then inverts it: the highest
// per-server rate whose predicted latency stays under the SLA bound is
// the usable capacity. This is the "models of past performance"
// machinery §2.2 asks for, in its simplest defensible form.
type CapacityModel struct {
	mu   sync.Mutex
	rate []float64 // per-server request rate
	lat  []float64 // observed latency (seconds) at the SLA percentile

	fitted   bool
	capacity float64 // fitted saturation rate
	base     float64
	k        float64
}

// MinObservations before Fit will produce a model.
const MinObservations = 8

// Observe records one (per-server rate, latency) sample. Latency is
// the measured SLA-percentile latency in seconds at that rate.
func (c *CapacityModel) Observe(ratePerServer, latencySeconds float64) {
	if ratePerServer <= 0 || latencySeconds <= 0 || math.IsNaN(latencySeconds) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rate = append(c.rate, ratePerServer)
	c.lat = append(c.lat, latencySeconds)
	// Keep a bounded history: the most recent 4096 samples.
	if len(c.rate) > 4096 {
		c.rate = c.rate[len(c.rate)-4096:]
		c.lat = c.lat[len(c.lat)-4096:]
	}
	c.fitted = false
}

// Observations reports the sample count.
func (c *CapacityModel) Observations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rate)
}

// Fit profiles candidate capacities and fits base and k by OLS on the
// transformed feature ρ/(1-ρ). Returns false until enough data.
func (c *CapacityModel) Fit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fitLocked()
}

func (c *CapacityModel) fitLocked() bool {
	if c.fitted {
		return true
	}
	if len(c.rate) < MinObservations {
		return false
	}
	maxRate := 0.0
	for _, r := range c.rate {
		if r > maxRate {
			maxRate = r
		}
	}
	bestErr := math.Inf(1)
	found := false
	// One feature column, refilled per candidate capacity; xs[i] is the
	// one-element row over feat[i].
	feat := make([]float64, len(c.rate))
	xs := make([][]float64, len(c.rate))
	for i := range xs {
		xs[i] = feat[i : i+1]
	}
	// Capacity must exceed every observed rate; profile a grid above
	// the max observed rate.
	for mult := 1.02; mult <= 4.0; mult *= 1.06 {
		cap := maxRate * mult
		for i, r := range c.rate {
			rho := r / cap
			feat[i] = rho / (1 - rho)
		}
		m, err := FitLinear(xs, c.lat)
		if err != nil {
			continue
		}
		var sse float64
		for i := range xs {
			d := c.lat[i] - m.Predict(xs[i])
			sse += d * d
		}
		if sse < bestErr && m.Coef[0] > 0 {
			bestErr = sse
			c.capacity = cap
			c.base = m.Intercept
			c.k = m.Coef[0]
			found = true
		}
	}
	c.fitted = found
	return found
}

// PredictLatency returns the modelled latency at a per-server rate.
// NaN when the model is not fit or the rate saturates the server.
func (c *CapacityModel) PredictLatency(ratePerServer float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fitLocked() {
		return math.NaN()
	}
	rho := ratePerServer / c.capacity
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho < 0 {
		return math.NaN()
	}
	return c.base + c.k*rho/(1-rho)
}

// UsableCapacity returns the highest per-server rate whose predicted
// latency stays at or below slaLatencySeconds, with the given headroom
// fraction (0.2 = keep 20% slack). Returns 0 until the model is fit.
func (c *CapacityModel) UsableCapacity(slaLatencySeconds, headroom float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fitLocked() {
		return 0
	}
	if slaLatencySeconds <= c.base {
		return 0 // SLA unachievable even when idle
	}
	// Invert: lat = base + k·ρ/(1-ρ)  =>  ρ = d/(k+d), d = lat-base.
	d := slaLatencySeconds - c.base
	rho := d / (c.k + d)
	usable := rho * c.capacity * (1 - headroom)
	if usable < 0 {
		return 0
	}
	return usable
}

// ServersNeeded returns the number of servers required to serve
// totalRate under the SLA. Returns min 1; returns fallback when the
// model is not yet fit.
func (c *CapacityModel) ServersNeeded(totalRate, slaLatencySeconds, headroom float64, fallback int) int {
	per := c.UsableCapacity(slaLatencySeconds, headroom)
	if per <= 0 {
		if fallback < 1 {
			return 1
		}
		return fallback
	}
	n := int(math.Ceil(totalRate / per))
	if n < 1 {
		n = 1
	}
	return n
}

// Params returns the fitted parameters (capacity, base, k) and whether
// the model is fit.
func (c *CapacityModel) Params() (capacity, base, k float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fitLocked() {
		return 0, 0, 0, false
	}
	return c.capacity, c.base, c.k, true
}
