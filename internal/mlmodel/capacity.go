package mlmodel

import (
	"math"
	"sync"
)

// Curve is one server's open-queueing latency curve,
//
//	latency(ρ) = Base + K·ρ/(1-ρ),   ρ = rate/Capacity,
//
// with latencies in seconds. It is the model side of every sizing
// decision: CapacityModel fits one from telemetry,
// cloudsim.ServiceModel hands out the one it simulates, and the
// director, the simulator's oracle and the advisor size fleets by
// inverting one.
type Curve struct {
	Capacity float64 // saturation rate of one server (req/s)
	Base     float64 // idle latency (s)
	K        float64 // scale of the queueing term (s)
}

// Latency returns the modelled latency in seconds at a per-server
// rate; +Inf once the rate saturates the server.
func (c Curve) Latency(ratePerServer float64) float64 {
	rho := ratePerServer / c.Capacity
	if rho >= 1 {
		return math.Inf(1)
	}
	return c.Base + c.K*rho/(1-rho)
}

// UsableRate returns the highest per-server rate whose latency stays
// at or below slaSeconds, less the headroom fraction (0.2 keeps a
// fifth of it spare); 0 when even an idle server misses the SLA.
func (c Curve) UsableRate(slaSeconds, headroom float64) float64 {
	d := slaSeconds - c.Base
	if d <= 0 {
		return 0
	}
	// Invert: sla = base + k·ρ/(1-ρ)  =>  ρ = d/(k+d).
	rho := d / (c.K + d)
	return rho * c.Capacity * (1 - headroom)
}

// ServersNeeded returns how many servers serve totalRate under the SLA
// with the headroom fraction spare, at least 1. When the SLA is
// unachievable it returns the caller's fallback (at least 1).
func (c Curve) ServersNeeded(totalRate, slaSeconds, headroom float64, fallback int) int {
	per := c.UsableRate(slaSeconds, headroom)
	if per <= 0 {
		return max(fallback, 1)
	}
	return max(int(math.Ceil(totalRate/per)), 1)
}

// CapacityModel learns one server's Curve from (per-server rate,
// observed latency) pairs, by profiling over candidate capacities and
// fitting base and k by least squares at each — the "models of past
// performance" machinery §2.2 asks for, in its simplest defensible
// form.
type CapacityModel struct {
	mu   sync.Mutex
	rate []float64 // per-server request rate
	lat  []float64 // observed latency (seconds) at the SLA percentile

	fitted bool
	curve  Curve
}

// MinObservations before a model fits.
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

// Curve returns the curve fitted to the samples, refitting if any
// arrived since the last call; false until the samples admit a fit.
func (c *CapacityModel) Curve() (Curve, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fitted || len(c.rate) < MinObservations {
		return c.curve, c.fitted
	}
	maxRate := 0.0
	for _, r := range c.rate {
		if r > maxRate {
			maxRate = r
		}
	}
	bestErr := math.Inf(1)
	// One feature column, ρ/(1-ρ), refilled per candidate capacity;
	// xs[i] is the one-element row over feat[i].
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
			c.curve = Curve{Capacity: cap, Base: m.Intercept, K: m.Coef[0]}
			c.fitted = true
		}
	}
	return c.curve, c.fitted
}
