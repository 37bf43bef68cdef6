package expgrid

import "math"

// Agg is the grouped aggregate of one metric across a row's repeats.
// Std is the sample standard deviation (n-1 denominator; 0 when a
// single repeat exists), matching what the paper-style summary tables
// report alongside the mean.
type Agg struct {
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	N    int
}

// Aggregate groups per-repeat metrics into per-metric aggregates. A
// metric missing from some repeats is aggregated over the repeats
// that did report it (N records how many); the runner treats that as
// a schema drift worth surfacing, but the math stays well-defined.
//
// Determinism contract: accumulation runs in repeat order (slice
// order), never in map-iteration order, so the same inputs produce
// bit-identical float results on every run.
func Aggregate(repeats []Metrics) map[string]Agg {
	names := metricNames(repeats)
	out := make(map[string]Agg, len(names))
	for _, name := range names {
		var vals []float64
		for _, m := range repeats { // repeat order: deterministic accumulation
			if v, ok := m[name]; ok {
				vals = append(vals, v)
			}
		}
		out[name] = aggregate(vals)
	}
	return out
}

// metricNames returns the union of metric names across repeats,
// sorted, so downstream iteration never depends on map order.
func metricNames(repeats []Metrics) []string {
	union := make(map[string]bool)
	for _, m := range repeats {
		for name := range m {
			union[name] = true
		}
	}
	return sortedKeys(union)
}

func aggregate(vals []float64) Agg {
	a := Agg{N: len(vals)}
	if a.N == 0 {
		return a
	}
	a.Min, a.Max = vals[0], vals[0]
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Mean = sum / float64(a.N)
	if a.Min == a.Max {
		// Identical repeats: sum/N can be off by an ulp — (0.1+0.1+0.1)/3
		// != 0.1 — which would fail a tolerance-0 gate and report a
		// non-zero std for a bit-identical row.
		a.Mean = a.Min
	}
	if a.N > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - a.Mean
			ss += d * d
		}
		a.Std = math.Sqrt(ss / float64(a.N-1))
	}
	return a
}
