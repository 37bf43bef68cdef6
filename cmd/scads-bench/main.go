// Command scads-bench regenerates every figure and table of the SCADS
// paper (see README.md beside this file). Each experiment prints the series or
// table the paper reports, produced by the real system components.
//
// Usage:
//
//	scads-bench -exp all
//	scads-bench -exp e1        # Figure 1: Animoto scale-up
//	scads-bench -exp e3        # Figure 3: index-maintenance table
//	scads-bench -exp e4b       # Figure 4 row 2: write consistency
//	scads-bench -exp all -csv out/   # capture per-experiment output + index.csv
//	scads-bench -list                # catalogue + grid-overridable parameters
//
//	scads-bench -grid experiments.json -out bench-out   # the full grid, with repeats
//	scads-bench -grid experiments.json -grid-row e17-mixed
//	scads-bench -compare bench-out                      # regression gate
//
// With -csv DIR each experiment's printed series lands in
// DIR/<id>.out and DIR/index.csv records one row per experiment
// (id, name, duration, output file) for scripted collection.
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
	"os"
	"path/filepath"
	"strings"
	"time"
)

// legacyExperiments are the paper-figure reproductions that predate
// the grid: human-readable series with no gated metrics, runnable
// only via -exp.
var legacyExperiments = []struct {
	id   string
	name string
	run  func()
}{
	{"e1", "Figure 1: Animoto viral scale-up (50 -> 3400 servers)", runE1},
	{"e2", "Figure 2: provisioning feedback loop reaction", runE2},
	{"e3", "Figure 3: index-maintenance table", runE3},
	{"e4a", "Figure 4 row 1: performance SLA", runE4a},
	{"e4b", "Figure 4 row 2: write consistency spectrum", runE4b},
	{"e4c", "Figure 4 row 3: read-consistency staleness bound", runE4c},
	{"e4d", "Figure 4 row 4: session guarantees", runE4d},
	{"e4e", "Figure 4 row 5: durability SLA", runE4e},
	{"e5", "Scale independence: latency flat in user count", runE5},
	{"e6", "O(K) update bound: Facebook accepted, Twitter rejected", runE6},
	{"e7", "Scale-down economics: diurnal day, elastic vs static", runE7},
	{"e8", "Deadline priority queue vs FIFO (ablation)", runE8},
	{"e9", "Advisor: pre-deployment cost & downtime-vs-cost guidance", runE9},
	{"e10", "Partition contention: priority order arbitration (§3.3.1)", runE10},
	{"e11", "Workload-driven repartitioning: hot-range split & move", runE11},
}

func main() {
	exp := flag.String("exp", "", "experiment id (e1..e18, e4a..e4e) or 'all'")
	csvDir := flag.String("csv", "", "directory for per-experiment output files plus index.csv")
	jsonDir := flag.String("bench-json", "", "directory for machine-readable BENCH_<exp>.json summaries")
	compare := flag.String("compare", "", "compare BENCH_*.json summaries in this directory against committed baselines and exit non-zero on regression")
	baselines := flag.String("baselines", "cmd/scads-bench/baselines", "baseline directory for -compare and the -grid report")
	grid := flag.String("grid", "", "experiments.json grid: run every row with repeats, emit validated CSVs + grouped summaries + report")
	gridRow := flag.String("grid-row", "", "with -grid: run only the row with this id")
	gridRepeats := flag.Int("grid-repeats", 0, "with -grid: raise every row's repeat count to at least this (nightly statistical power)")
	outDir := flag.String("out", "bench-out", "output directory for -grid artifacts")
	list := flag.Bool("list", false, "print every experiment and its grid-overridable parameters")
	seed := flag.Int64("seed", 1, "base RNG seed when running a grid-registered experiment via -exp")
	flag.Parse()
	benchJSONDir = *jsonDir

	switch {
	case *list:
		listExperiments()
		return
	case *compare != "":
		if n := compareBenchmarks(*compare, *baselines); n > 0 {
			log.Fatalf("scads-bench: %d metric(s) regressed against committed baselines", n)
		}
		fmt.Println("all benchmark metrics within tolerance of committed baselines")
		return
	case *grid != "":
		runGridCmd(*grid, *gridRow, *outDir, *gridRepeats, *baselines)
		return
	case *exp == "":
		*exp = "all"
	}

	var index *os.File
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("scads-bench: %v", err)
		}
		var err error
		index, err = os.Create(filepath.Join(*csvDir, "index.csv"))
		if err != nil {
			log.Fatalf("scads-bench: %v", err)
		}
		defer index.Close()
		fmt.Fprintln(index, "experiment,name,duration_ms,output_file")
	}

	ran := false
	for _, e := range allExperiments(*seed) {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		start := time.Now()
		if index != nil {
			// Capture the experiment's printed series in its own file;
			// progress goes to stderr so scripted runs stay quiet.
			outPath := filepath.Join(*csvDir, e.id+".out")
			f, err := os.Create(outPath)
			if err != nil {
				log.Fatalf("scads-bench: %v", err)
			}
			log.Printf("running %s: %s", e.id, e.name)
			saved := os.Stdout
			os.Stdout = f
			e.run()
			os.Stdout = saved
			f.Close()
			dur := time.Since(start)
			fmt.Fprintf(index, "%s,%q,%d,%s\n", e.id, e.name, dur.Milliseconds(), e.id+".out")
			log.Printf("%s completed in %v -> %s", e.id, dur.Truncate(time.Millisecond), outPath)
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n\n", strings.ToUpper(e.id), e.name)
		e.run()
		fmt.Printf("\n[%s completed in %v]\n", e.id, time.Since(start).Truncate(time.Millisecond))
	}
	if !ran {
		log.Printf("unknown experiment %q; available:", *exp)
		for _, e := range allExperiments(*seed) {
			log.Printf("  %-4s %s", e.id, e.name)
		}
		os.Exit(2)
	}
}

type benchExperiment struct {
	id   string
	name string
	run  func()
}

// allExperiments is the -exp catalogue: the legacy figure experiments
// followed by every grid-registered experiment at its declared
// defaults (the historical single-shot behavior). Grid experiments
// run through the same Run hook the grid uses; their gated metrics
// land in -bench-json exactly as before.
func allExperiments(seed int64) []benchExperiment {
	all := make([]benchExperiment, 0, len(legacyExperiments)+6)
	for _, e := range legacyExperiments {
		all = append(all, benchExperiment{e.id, e.name, e.run})
	}
	for _, exp := range gridRegistry().List() {
		exp := exp
		all = append(all, benchExperiment{exp.ID, exp.Name, func() {
			m, err := exp.Run(defaultParams(exp, seed))
			if err != nil {
				log.Fatalf("%s: %v", exp.ID, err)
			}
			writeBenchSummary(exp.ID, m)
		}})
	}
	return all
}
