package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"scads/internal/expgrid"
	"scads/internal/replication"
)

// committedGrid parses the committed experiments.json against the
// registry: every row must name a registered experiment and override
// only declared parameters. A rename or a typo in either place fails
// here, not in CI's bench-gate.
func committedGrid(t *testing.T) *expgrid.Grid {
	t.Helper()
	data, err := os.ReadFile("../../experiments.json")
	if err != nil {
		t.Fatalf("read committed grid: %v", err)
	}
	g, err := expgrid.ParseGrid(data, gridRegistry())
	if err != nil {
		t.Fatalf("committed experiments.json invalid: %v", err)
	}
	return g
}

func TestCommittedGridParses(t *testing.T) {
	g := committedGrid(t)
	if len(g.Rows) < 23 {
		t.Fatalf("committed grid has %d rows, want >= 23 (every experiment, plus workload variants)", len(g.Rows))
	}
	variants := 0
	for _, row := range g.Rows {
		if len(row.Params) > 0 {
			variants++
		}
	}
	if variants < 2 {
		t.Fatalf("committed grid has %d override rows, want >= 2 (scenario diversity)", variants)
	}
}

// TestEveryRowIsGated closes the hole `-compare` leaves open (a row
// without a baseline file is skipped with a message, not failed):
// every committed row has a baseline that gates at least one metric,
// every baseline file names a committed row, and every registered
// experiment has a row — so no paper figure can drop out of the gate.
func TestEveryRowIsGated(t *testing.T) {
	rows := make(map[string]bool)
	ran := make(map[string]bool)
	for _, row := range committedGrid(t).Rows {
		rows[row.ID] = true
		ran[row.Experiment] = true
		s, err := readSummary("baselines/BENCH_" + row.ID + ".json")
		if err != nil {
			t.Errorf("row %s is ungated: %v", row.ID, err)
		} else if len(s.Metrics) == 0 || s.Experiment != row.ID {
			t.Errorf("baseline of row %s gates %d metrics and names %q", row.ID, len(s.Metrics), s.Experiment)
		}
	}
	files, err := filepath.Glob("baselines/BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		if !rows[id] {
			t.Errorf("%s gates no committed row", f)
		}
	}
	for _, exp := range gridRegistry().List() {
		if !ran[exp.ID] {
			t.Errorf("experiment %s has no row in experiments.json", exp.ID)
		}
	}
}

// TestRegistryMatchesREADME pins the one catalogue to its
// documentation: the registry lists exactly the ids of the README's
// experiment table, in the same order.
func TestRegistryMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^\| (e[0-9]+[a-e]?) +\|`).FindAllStringSubmatch(string(readme), -1) {
		documented = append(documented, m[1])
	}
	var registered []string
	for _, exp := range gridRegistry().List() {
		registered = append(registered, exp.ID)
	}
	if len(registered) != 21 || !reflect.DeepEqual(registered, documented) {
		t.Fatalf("registry lists %d experiments %v; README table documents %v", len(registered), registered, documented)
	}
}

// TestDeterministicHooksReplay is what makes the tolerance-0 baselines
// legitimate: each cheap virtual-clock or pure-analysis experiment,
// run twice in this process, returns identical metrics. e1 is too slow
// for go test; its `repeats: 2` grid row proves the same through a
// grouped std of exactly 0.
func TestDeterministicHooksReplay(t *testing.T) {
	reg := gridRegistry()
	for _, id := range []string{"e2", "e3", "e4c", "e4d", "e4e", "e6", "e7", "e8", "e9", "e10", "e11"} {
		exp, ok := reg.Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		var runs [2]expgrid.Metrics
		for i := range runs {
			m, err := exp.Run(expgrid.NewParams(exp.Params, nil, int64(1+i), i))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			runs[i] = m
		}
		if len(runs[0]) == 0 || !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s does not replay:\n first %v\nsecond %v", id, runs[0], runs[1])
		}
	}
}

// TestElasticRowsHoldBaselines is the control loop's safety net inside
// go test: the rows that run sim.Run and fit in a second each — e2
// (both director policies), e7 (a director against none) and e16 (the
// same loop on one fitted curve with a real cluster behind it) — run
// once and must hold their committed baselines under the policy
// -compare applies.
func TestElasticRowsHoldBaselines(t *testing.T) {
	reg := gridRegistry()
	for _, id := range []string{"e2", "e7", "e16"} {
		exp, ok := reg.Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		got, err := exp.Run(expgrid.NewParams(exp.Params, nil, 1, 0))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		base, err := readSummary("baselines/BENCH_" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for name, bm := range base.Metrics {
			v, measured := got[name]
			if !measured {
				t.Errorf("%s: gated metric %s missing from the run", id, name)
			} else if ok, bound := bm.Within(v); !ok {
				t.Errorf("%s: %s = %g, baseline %g (%s bound %g)", id, name, v, bm.Value, bm.Direction, bound)
			}
		}
	}
}

func TestE8DeadlineProtectsTightBounds(t *testing.T) {
	dl := simulateE8(replication.ByDeadline)
	ff := simulateE8(replication.FIFO)

	// Both disciplines deliver the same volume; only lateness differs.
	if dl.Delivered == 0 || dl.Delivered != ff.Delivered {
		t.Fatalf("delivered: deadline=%d fifo=%d", dl.Delivered, ff.Delivered)
	}
	// The deadline queue protects the tight class entirely; FIFO,
	// blind to deadlines, burns thousands of tight-bound deadlines.
	if dl.TightViolations != 0 {
		t.Fatalf("deadline discipline violated %d tight bounds", dl.TightViolations)
	}
	if ff.TightViolations == 0 {
		t.Fatal("FIFO should violate tight bounds under overload")
	}
	// Neither class's 60s bound is violated: the burst backlog drains
	// well within a minute.
	if dl.LooseViolations != 0 || ff.LooseViolations != 0 {
		t.Fatalf("loose violations: deadline=%d fifo=%d", dl.LooseViolations, ff.LooseViolations)
	}
	if ff.MaxTightStale <= dl.MaxTightStale {
		t.Fatalf("max tight staleness: fifo %v should exceed deadline %v",
			ff.MaxTightStale, dl.MaxTightStale)
	}
}

// TestGroupedSummaryRoundTrip writes a grouped BENCH_<row>.json and
// reads it back through the same decoder -compare uses, verifying the
// mean/std/repeats fields survive the trip.
func TestGroupedSummaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	row := expgrid.RowResult{
		Row: expgrid.Row{ID: "fake", Experiment: "e12"},
		Repeats: []expgrid.RepeatResult{
			{Repeat: 0, Metrics: expgrid.Metrics{"m": 10}},
			{Repeat: 1, Metrics: expgrid.Metrics{"m": 14}},
		},
	}
	row.Grouped = expgrid.Aggregate([]expgrid.Metrics{{"m": 10}, {"m": 14}})
	writeGroupedBenchSummary(dir, row)
	s, err := readSummary(dir + "/BENCH_fake.json")
	if err != nil {
		t.Fatalf("readSummary: %v", err)
	}
	if s.Repeats != 2 {
		t.Fatalf("repeats = %d, want 2", s.Repeats)
	}
	m := s.Metrics["m"]
	if m.Value != 12 || m.Std == 0 {
		t.Fatalf("grouped metric = %+v, want mean 12 with non-zero std", m)
	}
	if m.Direction != "" || m.Tolerance != 0 {
		t.Fatalf("run summary must not carry baseline policy: %+v", m)
	}
}

// TestBaselinesDecodeThroughBaseline reads every committed baseline
// through BenchMetric and into plain fields: the embedded
// expgrid.Baseline must carry exactly the value, direction and
// tolerance the file spells, and Std its std.
func TestBaselinesDecodeThroughBaseline(t *testing.T) {
	files, _ := filepath.Glob("baselines/BENCH_*.json")
	if len(files) == 0 {
		t.Fatal("no committed baselines")
	}
	for _, f := range files {
		var plain struct {
			Metrics map[string]struct {
				Value, Std, Tolerance float64
				Direction             string
			}
		}
		data, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(data, &plain)
		}
		s, serr := readSummary(f)
		if err != nil || serr != nil || len(s.Metrics) != len(plain.Metrics) {
			t.Fatalf("%s: %v, %v; %d metrics decoded of %d", f, err, serr, len(s.Metrics), len(plain.Metrics))
		}
		for name, m := range plain.Metrics {
			want := BenchMetric{Baseline: expgrid.Baseline{Value: m.Value, Direction: m.Direction, Tolerance: m.Tolerance}, Std: m.Std}
			if got := s.Metrics[name]; got != want {
				t.Errorf("%s %s: decoded %+v, file spells %+v", f, name, got, want)
			}
		}
	}
}
