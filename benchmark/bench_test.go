package main

import (
	"io"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"scads/internal/row"
)

// nopTarget answers every call at once with nothing: what is left of
// the timed loop is the load generator itself.
type nopTarget struct{}

func (nopTarget) Get(string, row.Row) (row.Row, bool, error)      { return nil, false, nil }
func (nopTarget) Insert(string, row.Row) error                    { return nil }
func (nopTarget) Delete(string, row.Row) error                    { return nil }
func (nopTarget) Query(string, map[string]any) ([]row.Row, error) { return nil, nil }

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, def := range workloadDefs {
		hash := func(seed int64) uint64 {
			return genStreams(newDataset(def, seed, true), seed, numClients, 2000).hash
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 gave streams %016x and %016x", def.name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %016x", def.name, a)
		}
	}
}

// The timed loop must not allocate, or allocs_per_op would measure the
// harness as well as the system.
func TestTimedLoopAllocatesNothing(t *testing.T) {
	for _, def := range workloadDefs {
		d := newDataset(def, 1, true)
		ops := genStreams(d, 1, 1, 2000).clients[0]
		g := newLoadgen(nopTarget{}, d)
		buf := make([]sample, 0, len(ops))
		start := time.Now()
		allocs := testing.AllocsPerRun(5, func() {
			if got := g.closedLoop(ops, false, start, 0, time.Hour, buf); len(got) != len(ops) {
				t.Fatalf("%s: recorded %d of %d ops", def.name, len(got), len(ops))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: the timed loop allocates %.1f times per %d ops", def.name, allocs, len(ops))
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end and traced at tiny scale
// and checks that exactly the metrics BENCHMARK.json names come out,
// each once, with the unit it declares.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloadDefs))
	}
	root := t.TempDir()
	for i, def := range workloadDefs {
		if sp.Workloads[i].Name != def.name || sp.Workloads[i].Why != def.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, sp.Workloads[i].Name, def.name)
		}
		c := runConfig{
			def: def, seed: 1, tiny: true, out: io.Discard,
			dataRoot: filepath.Join(root, "data"), traceOut: filepath.Join(root, def.name+".json"),
		}
		for _, mode := range []struct {
			name    string
			seconds float64
			run     func(runConfig) (*metricSet, result, error)
			want    []specMetric
		}{
			{"end_to_end", 0.4, endToEnd, sp.EndToEnd},
			{"per_layer", 0.8, traced, sp.PerLayer},
		} {
			c.seconds = mode.seconds
			ms, res, err := mode.run(c)
			if err != nil {
				t.Fatalf("%s %s: %v", def.name, mode.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", def.name, mode.name, res.Correct, res.Attempted, res.Failed)
			}
			if len(ms.list) != len(mode.want) {
				t.Errorf("%s %s: %d metrics emitted, BENCHMARK.json lists %d", def.name, mode.name, len(ms.list), len(mode.want))
			}
			for _, w := range mode.want {
				got, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s %s: %s not emitted", def.name, mode.name, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("%s %s: %s has unit %q, BENCHMARK.json says %q", def.name, mode.name, w.Name, got.Unit, w.Unit)
				case !metricName.MatchString(w.Name):
					t.Errorf("%s: not a legal metric name", w.Name)
				case mode.name == "end_to_end" && got.Value <= 0:
					t.Errorf("%s %s: %s = %v, an end-to-end metric is never 0", def.name, mode.name, w.Name, got.Value)
				}
			}
		}
	}
}
