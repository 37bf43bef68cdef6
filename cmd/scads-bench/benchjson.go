package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"scads/internal/expgrid"
)

// BenchMetric is one metric of a BENCH_<row>.json file: in a committed
// baseline, the expgrid.Baseline policy (value, direction, tolerance;
// Baseline.Within holds the semantics, shared with the markdown
// report); in a run summary, the value alone, plus Std. A zero-valued
// lower-is-better baseline with zero tolerance is a hard gate: any
// non-zero run value fails (the lost-updates / scan-errors
// invariants).
//
// Grid runs with repeats write grouped summaries: Value is the mean
// over the row's repeats and Std the sample standard deviation. The
// gate applies to the mean; Std is reported so a pass riding on
// variance is visible in the verdict table.
type BenchMetric struct {
	expgrid.Baseline
	Std float64 `json:"std,omitempty"`
}

// BenchSummary is the machine-readable result of one grid row,
// written as BENCH_<row>.json. Repeats records how many independent
// repeats the grouped metrics aggregate (absent in baseline files).
type BenchSummary struct {
	Experiment string                 `json:"experiment"`
	Repeats    int                    `json:"repeats,omitempty"`
	Metrics    map[string]BenchMetric `json:"metrics"`
}

// writeGroupedBenchSummary persists a grid row's aggregated metrics
// as BENCH_<row>.json: mean as the gated value, std and the repeat
// count alongside. Run files carry values only — direction and
// tolerance live solely in the committed baselines, so refreshing a
// baseline from a run file can never silently loosen the policy. A
// write failure is fatal: a CI run that silently skips the summary
// would also silently skip the regression gate.
func writeGroupedBenchSummary(dir string, row expgrid.RowResult) {
	metrics := make(map[string]BenchMetric, len(row.Grouped))
	for name, a := range row.Grouped {
		metrics[name] = BenchMetric{Baseline: expgrid.Baseline{Value: a.Mean}, Std: a.Std}
	}
	s := BenchSummary{Experiment: row.Row.ID, Repeats: len(row.Repeats), Metrics: metrics}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	path := filepath.Join(dir, "BENCH_"+row.Row.ID+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	log.Printf("grid row %s: wrote %s", row.Row.ID, path)
}

func readSummary(path string) (*BenchSummary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSummary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareBenchmarks diffs every BENCH_*.json summary in runDir against
// the committed baseline of the same name, applying each baseline
// metric's direction and tolerance. It prints a verdict table and
// returns how many metrics regressed; metrics present in a run but
// absent from its baseline are informational only, while a baseline
// metric missing from the run counts as a regression (a gate that
// stopped being measured is a gate that stopped gating).
func compareBenchmarks(runDir, baselineDir string) int {
	runs, err := filepath.Glob(filepath.Join(runDir, "BENCH_*.json"))
	if err != nil || len(runs) == 0 {
		log.Fatalf("scads-bench: no BENCH_*.json summaries under %s", runDir)
	}
	sort.Strings(runs)
	regressions := 0
	for _, runPath := range runs {
		run, err := readSummary(runPath)
		if err != nil {
			log.Fatalf("scads-bench: %v", err)
		}
		basePath := filepath.Join(baselineDir, filepath.Base(runPath))
		base, err := readSummary(basePath)
		if os.IsNotExist(err) {
			fmt.Printf("%s: no baseline at %s (skipping; commit one to gate it)\n", run.Experiment, basePath)
			continue
		}
		if err != nil {
			log.Fatalf("scads-bench: %v", err)
		}
		if run.Repeats > 1 {
			fmt.Printf("%s (baseline %s; run is mean over %d repeats, gate on mean):\n",
				run.Experiment, basePath, run.Repeats)
		} else {
			fmt.Printf("%s (baseline %s):\n", run.Experiment, basePath)
		}
		names := make([]string, 0, len(base.Metrics))
		for name := range base.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bm := base.Metrics[name]
			rm, ok := run.Metrics[name]
			if !ok {
				fmt.Printf("  %-34s %14s   REGRESSION (metric missing from run)\n", name, "-")
				regressions++
				continue
			}
			ok, bound := bm.Within(rm.Value)
			verdict := "ok"
			if !ok {
				verdict = fmt.Sprintf("REGRESSION (%s bound %g)", bm.Direction, bound)
				regressions++
			}
			cell := fmt.Sprintf("%g", rm.Value)
			if run.Repeats > 1 {
				cell = fmt.Sprintf("%g ±%g", rm.Value, rm.Std)
			}
			fmt.Printf("  %-34s %20s   baseline %g  %s\n", name, cell, bm.Value, verdict)
		}
	}
	return regressions
}
