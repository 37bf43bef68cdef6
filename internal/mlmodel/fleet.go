package mlmodel

import (
	"math"
	"sort"
	"sync"
)

// FleetModel derives fleet capacity analytically from measured per-op
// cost curves (the FleetOpt-style upgrade over the single aggregate
// curve CapacityModel fits). Each request class c — view-profile,
// update-profile, … — has an unknown service demand D_c in
// server-seconds per operation. The model never sees D_c directly;
// it learns it from aggregate telemetry: the per-class per-server
// request rates x_c of an interval and the interval's SLA-percentile
// latency L (the WindowQuantile output of the SLA monitor). Under the
// same open queueing model as CapacityModel,
//
//	L = D̄/(1-ρ),   ρ = Σ_c x_c·D_c,   D̄ = ρ/X,   X = Σ_c x_c
//
// so each observation implies its utilisation in closed form,
//
//	ρ = L·X / (1 + L·X)
//
// which turns the per-class demand fit into plain least squares with
// no intercept: ρ ≈ Σ_c x_c·D_c, linear in the unknown demands. From
// the fitted demands, capacity for any operation mix follows
// analytically — no grid profiling: with mix fractions f_c, mean
// demand D̄ = Σ f_c·D_c, the latency bound L_max admits utilisation
// ρ_max = 1 − D̄/L_max, hence a per-server sustainable rate
// ρ_max/D̄, shaved by the headroom fraction.
//
// The director feeds it the forecaster's projected demand when sizing,
// so the existing forecast/quantile models remain the inputs; this
// model replaces only the "how many servers for that demand" step.
type FleetModel struct {
	mu  sync.Mutex
	obs []fleetSample

	fitted bool
	demand map[string]float64 // fitted D_c (server-seconds per op)
}

type fleetSample struct {
	rates map[string]float64 // per-class per-server rate (ops/s)
	rho   float64            // implied utilisation
}

// Observe records one interval's telemetry: per-class per-server
// request rates and the measured SLA-percentile latency in seconds.
// Samples with no load or a non-positive latency are ignored, as are
// saturated intervals the caller filters before calling.
func (f *FleetModel) Observe(classRates map[string]float64, latencySeconds float64) {
	if latencySeconds <= 0 || math.IsNaN(latencySeconds) {
		return
	}
	total := 0.0
	rates := make(map[string]float64, len(classRates))
	for _, c := range sortedKeys(classRates) {
		x := classRates[c]
		if x <= 0 || math.IsNaN(x) {
			continue
		}
		rates[c] = x
		total += x
	}
	if total <= 0 {
		return
	}
	rho := latencySeconds * total / (1 + latencySeconds*total)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.obs = append(f.obs, fleetSample{rates: rates, rho: rho})
	if len(f.obs) > 4096 {
		f.obs = f.obs[len(f.obs)-4096:]
	}
	f.fitted = false
}

// Fit solves the no-intercept least-squares system for the per-class
// demands. Returns false until there are enough observations or when
// the system is degenerate (e.g. class rates perfectly collinear).
func (f *FleetModel) Fit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fitLocked()
}

func (f *FleetModel) fitLocked() bool {
	if f.fitted {
		return true
	}
	if len(f.obs) < MinObservations {
		return false
	}
	seen := map[string]bool{}
	for _, s := range f.obs {
		for c := range s.rates {
			seen[c] = true
		}
	}
	classes := make([]string, 0, len(seen))
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	d := len(classes)
	if d == 0 || len(f.obs) < d+1 {
		return false
	}

	// Normal equations X'X·D = X'ρ, no intercept column.
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	row := make([]float64, d)
	for _, s := range f.obs {
		for i, c := range classes {
			row[i] = s.rates[c]
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * s.rho
		}
	}
	beta, err := solve(xtx, xty)
	if err != nil {
		return false
	}
	demand := make(map[string]float64, d)
	positive := false
	for i, c := range classes {
		if beta[i] < 0 {
			beta[i] = 0 // a class can be ~free, never negative-cost
		}
		if beta[i] > 0 {
			positive = true
		}
		demand[c] = beta[i]
	}
	if !positive {
		return false
	}
	f.demand = demand
	f.fitted = true
	return true
}

// meanDemandLocked computes D̄ = Σ f_c·D_c for a mix given as relative
// class weights (normalised internally). Classes the model never saw
// cost the mean of the known demands — unknown work is not free.
func (f *FleetModel) meanDemandLocked(mix map[string]float64) float64 {
	mixClasses := sortedKeys(mix)
	var total float64
	for _, c := range mixClasses {
		if w := mix[c]; w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	var known, n float64
	for _, c := range sortedKeys(f.demand) {
		known += f.demand[c]
		n++
	}
	unknownCost := 0.0
	if n > 0 {
		unknownCost = known / n
	}
	var mean float64
	for _, c := range mixClasses {
		w := mix[c]
		if w <= 0 {
			continue
		}
		d, ok := f.demand[c]
		if !ok {
			d = unknownCost
		}
		mean += w / total * d
	}
	return mean
}

// UsablePerServer returns the highest total per-server request rate of
// the given mix whose predicted latency stays at or below the SLA
// bound, shaved by the headroom fraction. 0 until fit or when the SLA
// is unachievable (a single op already costs more than the bound).
func (f *FleetModel) UsablePerServer(mix map[string]float64, slaLatencySeconds, headroom float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.fitLocked() || slaLatencySeconds <= 0 {
		return 0
	}
	mean := f.meanDemandLocked(mix)
	if mean <= 0 {
		return 0
	}
	rhoMax := 1 - mean/slaLatencySeconds
	if rhoMax <= 0 {
		return 0 // SLA below the bare service time: unachievable
	}
	usable := rhoMax / mean * (1 - headroom)
	if usable < 0 {
		return 0
	}
	return usable
}

// ServersNeeded sizes the fleet for totalRate requests/second of the
// given mix under the SLA: ceil(totalRate/usable), never below floor —
// the caller passes the capacity its currently committed ranges demand
// (replication factor × data footprint), so provisioning can never
// shrink under what the stored data itself requires. Returns
// max(floor, 1) when the model is not fit.
func (f *FleetModel) ServersNeeded(totalRate float64, mix map[string]float64, slaLatencySeconds, headroom float64, floor int) int {
	if floor < 1 {
		floor = 1
	}
	per := f.UsablePerServer(mix, slaLatencySeconds, headroom)
	if per <= 0 {
		return floor
	}
	n := int(math.Ceil(totalRate / per))
	if n < floor {
		n = floor
	}
	return n
}

// sortedKeys returns m's keys sorted, so per-class float aggregation
// iterates in a fixed order: map iteration order is randomized per
// run and float addition is not associative, so summing in map order
// would make the low mantissa bits run-dependent — exactly what the
// e16 bit-identical-metrics gate (and the determinism analyzer)
// forbids in the control plane.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
