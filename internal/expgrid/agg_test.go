package expgrid

import (
	"math"
	"reflect"
	"testing"
)

func TestAggregateMath(t *testing.T) {
	reps := []Metrics{
		{"ops": 10, "lost": 0},
		{"ops": 14, "lost": 0},
		{"ops": 12, "lost": 0},
	}
	got := Aggregate(reps)
	ops := got["ops"]
	if ops.N != 3 || ops.Mean != 12 || ops.Min != 10 || ops.Max != 14 {
		t.Fatalf("ops agg: %+v", ops)
	}
	// Sample std of {10, 14, 12}: variance = (4+4+0)/2 = 4, std = 2.
	if ops.Std != 2 {
		t.Fatalf("ops std: got %g, want 2", ops.Std)
	}
	lost := got["lost"]
	if lost.Mean != 0 || lost.Std != 0 || lost.Max != 0 {
		t.Fatalf("lost agg: %+v", lost)
	}
}

func TestAggregateSingleRepeat(t *testing.T) {
	got := Aggregate([]Metrics{{"x": 3.5}})
	if a := got["x"]; a.N != 1 || a.Mean != 3.5 || a.Std != 0 || a.Min != 3.5 || a.Max != 3.5 {
		t.Fatalf("single repeat: %+v", a)
	}
}

// TestAggregateIdenticalRepeats: three bit-identical repeats group to
// that value with std exactly 0 — (0.1+0.1+0.1)/3 is an ulp above 0.1,
// which a tolerance-0 baseline at nightly's 3 repeats would fail on.
func TestAggregateIdenticalRepeats(t *testing.T) {
	got := Aggregate([]Metrics{{"x": 0.1}, {"x": 0.1}, {"x": 0.1}})
	if a := got["x"]; a.Mean != 0.1 || a.Std != 0 {
		t.Fatalf("identical repeats: %+v", a)
	}
}

func TestAggregateMissingMetricInSomeRepeats(t *testing.T) {
	got := Aggregate([]Metrics{{"x": 1, "y": 5}, {"x": 3}})
	if a := got["x"]; a.N != 2 || a.Mean != 2 {
		t.Fatalf("x: %+v", a)
	}
	if a := got["y"]; a.N != 1 || a.Mean != 5 {
		t.Fatalf("y: %+v", a)
	}
}

// TestAggregateDeterministic: identical inputs must yield bit-identical
// aggregates — accumulation order is repeat order, never map order.
func TestAggregateDeterministic(t *testing.T) {
	mk := func() []Metrics {
		// Values chosen so float addition is order-sensitive: summing
		// in a different order would change the low bits of the mean.
		return []Metrics{
			{"a": 0.1, "b": 1e16},
			{"a": 0.2, "b": 1},
			{"a": 0.3, "b": -1e16},
		}
	}
	first := Aggregate(mk())
	for i := 0; i < 100; i++ {
		if got := Aggregate(mk()); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: aggregation not deterministic:\n%+v\nvs\n%+v", i, got, first)
		}
	}
	// Repeat-order accumulation: 1e16 + 1 rounds back to 1e16, then
	// -1e16 cancels to exactly 0. Summing in any other order gives a
	// nonzero mean.
	if b := first["b"]; b.Mean != 0 {
		t.Fatalf("b mean accumulated out of repeat order: %g", b.Mean)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := Aggregate(nil); len(got) != 0 {
		t.Fatalf("empty input: %+v", got)
	}
	if a := aggregate(nil); a.N != 0 || a.Mean != 0 || !reflect.DeepEqual(a, Agg{}) {
		t.Fatalf("zero-value agg: %+v", a)
	}
}

func TestBaselineWithin(t *testing.T) {
	cases := []struct {
		b     Baseline
		got   float64
		want  bool
		bound float64
	}{
		{Baseline{Value: 100, Direction: "higher", Tolerance: 0.1}, 91, true, 90},
		{Baseline{Value: 100, Direction: "higher", Tolerance: 0.1}, 89, false, 90},
		{Baseline{Value: 100, Direction: "lower", Tolerance: 0.5}, 150, true, 150},
		{Baseline{Value: 100, Direction: "lower", Tolerance: 0.5}, 151, false, 150},
		// Hard gate: zero-valued lower-is-better with zero tolerance.
		{Baseline{Value: 0, Direction: "lower"}, 0, true, 0},
		{Baseline{Value: 0, Direction: "lower"}, 0.5, false, 0},
		// Exact: a pinned reproduction fails off either side.
		{Baseline{Value: 4237, Direction: "exact"}, 4237, true, 4237},
		{Baseline{Value: 4237, Direction: "exact"}, 4236, false, 4237},
		{Baseline{Value: 4237, Direction: "exact"}, 4238, false, 4237},
		{Baseline{Value: 100, Direction: "exact", Tolerance: 0.1}, 91, true, 100},
		// Unset direction reads as higher-is-better.
		{Baseline{Value: 10}, 10, true, 10},
		{Baseline{Value: 10}, 9, false, 10},
	}
	for i, tc := range cases {
		ok, bound := tc.b.Within(tc.got)
		if ok != tc.want || math.Abs(bound-tc.bound) > 1e-12 {
			t.Errorf("case %d: Within(%g) = (%v, %g), want (%v, %g)", i, tc.got, ok, bound, tc.want, tc.bound)
		}
	}
}
