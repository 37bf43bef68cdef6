// Command scads-bench regenerates every figure and table of the SCADS
// paper (see README.md beside this file). Each experiment prints the series or
// table the paper reports, produced by the real system components,
// and returns the figure's headline quantities as gated metrics.
//
// Usage:
//
//	scads-bench                                         # the committed grid -> bench-out/
//	scads-bench -grid experiments.json -out bench-out   # the same, spelled out
//	scads-bench -grid experiments.json -grid-row e1     # Figure 1: Animoto scale-up
//	scads-bench -grid experiments.json -grid-row e17-mixed
//	scads-bench -compare bench-out                      # regression gate
//	scads-bench -list                                   # catalogue + grid-overridable parameters
//
// -grid runs the committed experiment grid: every row of
// experiments.json executes its experiment with that row's parameter
// overrides, repeat count and seed policy, and the output directory
// receives schema-validated runs.csv / summary_grouped.csv, one
// grouped BENCH_<row>.json per row, and report.md (grouped mean±std
// diffed against the committed baselines). CI's bench-gate is
// `-grid` followed by `-compare`.
package main

import (
	"flag"
	"fmt"
	"log"
)

func main() {
	grid := flag.String("grid", "experiments.json", "experiments.json grid: run every row with repeats, emit validated CSVs + grouped summaries + report")
	gridRow := flag.String("grid-row", "", "run only the grid row with this id")
	gridRepeats := flag.Int("grid-repeats", 0, "raise every grid row's repeat count to at least this (nightly statistical power)")
	outDir := flag.String("out", "bench-out", "output directory for grid artifacts")
	compare := flag.String("compare", "", "compare BENCH_*.json summaries in this directory against committed baselines and exit non-zero on regression")
	baselines := flag.String("baselines", "cmd/scads-bench/baselines", "baseline directory for -compare and the grid report")
	list := flag.Bool("list", false, "print every experiment and its grid-overridable parameters")
	flag.Parse()

	switch {
	case *list:
		listExperiments()
	case *compare != "":
		if n := compareBenchmarks(*compare, *baselines); n > 0 {
			log.Fatalf("scads-bench: %d metric(s) regressed against committed baselines", n)
		}
		fmt.Println("all benchmark metrics within tolerance of committed baselines")
	default:
		runGridCmd(*grid, *gridRow, *outDir, *gridRepeats, *baselines)
	}
}
