package main

// The experiment grid: every experiment — the paper's figures e1–e11
// and the system experiments e12–e18 — registers with internal/expgrid
// (params in, typed metrics out), and the committed experiments.json
// at the repository root declares which rows — base configurations
// plus workload variants (value sizes, skew, mixes, repeats) — one
// `scads-bench -grid` invocation runs. CI's bench-gate is exactly
// that invocation followed by `-compare`.

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"scads/internal/expgrid"
)

// gridRegistry declares every experiment. The paper figures take no
// parameters: each reproduces one fixed configuration whose numbers
// the committed baselines pin. For e12–e18 a grid row with no
// overrides runs the declared defaults.
func gridRegistry() *expgrid.Registry {
	reg := expgrid.NewRegistry()
	for _, e := range []expgrid.Experiment{
		{ID: "e1", Name: "Figure 1: Animoto viral scale-up (50 -> 3400 servers)", Run: runE1},
		{ID: "e2", Name: "Figure 2: provisioning feedback loop reaction", Run: runE2},
		{ID: "e3", Name: "Figure 3: index-maintenance table", Run: runE3},
		{ID: "e4a", Name: "Figure 4 row 1: performance SLA", Run: runE4a},
		{ID: "e4b", Name: "Figure 4 row 2: write consistency spectrum", Run: runE4b},
		{ID: "e4c", Name: "Figure 4 row 3: read-consistency staleness bound", Run: runE4c},
		{ID: "e4d", Name: "Figure 4 row 4: session guarantees", Run: runE4d},
		{ID: "e4e", Name: "Figure 4 row 5: durability SLA", Run: runE4e},
		{ID: "e5", Name: "Scale independence: latency flat in user count", Run: runE5},
		{ID: "e6", Name: "O(K) update bound: Facebook accepted, Twitter rejected", Run: runE6},
		{ID: "e7", Name: "Scale-down economics: diurnal day, elastic vs static", Run: runE7},
		{ID: "e8", Name: "Deadline priority queue vs FIFO (ablation)", Run: runE8},
		{ID: "e9", Name: "Advisor: pre-deployment cost & downtime-vs-cost guidance", Run: runE9},
		{ID: "e10", Name: "Partition contention: priority order arbitration (§3.3.1)", Run: runE10},
		{ID: "e11", Name: "Workload-driven repartitioning: hot-range split & move", Run: runE11},
	} {
		reg.Register(e)
	}
	reg.Register(expgrid.Experiment{
		ID:   "e12",
		Name: "Writes during migration: lossless online range handoff",
		Params: []expgrid.ParamSpec{
			{Name: "nodes", Default: 3, Doc: "cluster size"},
			{Name: "writers", Default: 4, Doc: "concurrent writer goroutines (1-9)"},
			{Name: "ops_per_writer", Default: 400, Doc: "insert/delete ops per writer"},
			{Name: "migration_rounds", Default: 10, Doc: "cycles of every range across the node set"},
			{Name: "value_size", Default: 0, Doc: "pad the name column to this many bytes (0 = tiny rows)"},
		},
		Run: runE12,
	})
	reg.Register(expgrid.Experiment{
		ID:   "e13",
		Name: "Crash recovery: failure detector, failover, RF repair under load",
		Params: []expgrid.ParamSpec{
			{Name: "nodes", Default: 4, Doc: "cluster size"},
			{Name: "rf", Default: 2, Doc: "replication factor (<= nodes)"},
			{Name: "writers", Default: 4, Doc: "concurrent writer goroutines (1-9)"},
		},
		Run: runE13,
	})
	reg.Register(expgrid.Experiment{
		ID:   "e14",
		Name: "Scan pipeline: parallel scatter-gather throughput; scans under migration + crash",
		Params: []expgrid.ParamSpec{
			{Name: "users", Default: 2400, Doc: "dataset size (multiple of range_size, 1000-9999)"},
			{Name: "range_size", Default: 200, Doc: "rows per partition"},
			{Name: "rtt_ms", Default: 2, Doc: "simulated per-call network latency, milliseconds"},
			{Name: "measure_scans", Default: 40, Doc: "scans per throughput measurement, timed in 5 passes (the median pass is gated)"},
		},
		Run: runE14,
	})
	reg.Register(expgrid.Experiment{
		ID:     "e16",
		Name:   "Elastic autoscaling end-to-end: diurnal / flash-crowd / hotspot-shift, SLO minutes & cost",
		Params: nil, // scenarios are fully declared in code; the row proves bit-identical repeats
		Run:    runE16,
	})
	reg.Register(expgrid.Experiment{
		ID:   "e17",
		Name: "Storage-engine raw speed: block cache hit ratio & read latency, churn correctness, fence pause under compaction",
		Params: []expgrid.ParamSpec{
			{Name: "keys", Default: 20000, Doc: "keys loaded into the namespace"},
			{Name: "value_size", Default: 64, Doc: "bytes per value"},
			{Name: "reads", Default: 40000, Doc: "measured operations in the zipfian mix"},
			{Name: "zipf_s", Default: 1.2, Doc: "zipf skew exponent (> 1; lower = flatter)"},
			{Name: "write_fraction", Default: 0, Doc: "fraction of measured ops that are writes (YCSB-style mix, 0-0.9)"},
			{Name: "block_cache_mb", Default: 64, Doc: "block cache size for the warm run, MiB"},
		},
		Run: runE17,
	})
	reg.Register(expgrid.Experiment{
		ID:   "e18",
		Name: "Multi-tenant admission: noisy-neighbor SLO isolation, priority-ordered sheds, zero acked loss",
		Params: []expgrid.ParamSpec{
			{Name: "tenants", Default: 4, Doc: "compliant committed tenants with zipf-skewed quotas (2-4)"},
			{Name: "adv_workers", Default: 48, Doc: "unpaced goroutines driving the adversarial tenant"},
			{Name: "quota_ops", Default: 400, Doc: "base ops/sec quota; tenant i gets quota_ops/(i+1)"},
			{Name: "run_ms", Default: 1500, Doc: "flood duration, milliseconds"},
			{Name: "max_inflight", Default: 16, Doc: "coordinator in-flight watermark ceiling"},
			{Name: "slo_ms", Default: 100, Doc: "compliant-tenant p99 write SLO, milliseconds (hard gate)"},
			{Name: "rtt_ms", Default: 2, Doc: "simulated per-call network latency, milliseconds"},
		},
		Run: runE18,
	})
	return reg
}

// runGridCmd is the `-grid` entrypoint: parse and validate the
// committed grid, execute every row (or just -grid-row) with repeats,
// write BENCH_<row>.json grouped summaries plus the schema-validated
// CSVs, and render the markdown report against the committed
// baselines. The report also goes to stdout so a local run is
// readable without opening files.
func runGridCmd(gridPath, rowID, outDir string, minRepeats int, baselineDir string) {
	reg := gridRegistry()
	data, err := os.ReadFile(gridPath)
	if err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	g, err := expgrid.ParseGrid(data, reg)
	if err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	runner := &expgrid.Runner{
		Registry:   reg,
		OutDir:     outDir,
		MinRepeats: minRepeats,
		Logf:       log.Printf,
	}
	res, err := runner.Run(g, rowID)
	if err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	for _, row := range res.Rows {
		writeGroupedBenchSummary(outDir, row)
	}
	baselines := loadRowBaselines(baselineDir, res)
	reportPath := filepath.Join(outDir, "report.md")
	f, err := os.Create(reportPath)
	if err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	if err := expgrid.WriteReport(f, res, baselines); err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
	log.Printf("grid report: %s", reportPath)
	if err := expgrid.WriteReport(os.Stdout, res, baselines); err != nil {
		log.Fatalf("scads-bench: %v", err)
	}
}

// loadRowBaselines reads the committed BENCH_<row>.json baseline for
// every executed row (absent baselines simply leave the row ungated
// in the report; `-compare` applies the same rule).
func loadRowBaselines(baselineDir string, res *expgrid.GridResult) map[string]map[string]expgrid.Baseline {
	out := make(map[string]map[string]expgrid.Baseline)
	for _, row := range res.Rows {
		s, err := readSummary(filepath.Join(baselineDir, "BENCH_"+row.Row.ID+".json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			log.Fatalf("scads-bench: %v", err)
		}
		m := make(map[string]expgrid.Baseline, len(s.Metrics))
		for name, bm := range s.Metrics {
			m[name] = bm.Baseline
		}
		out[row.Row.ID] = m
	}
	return out
}

// listExperiments prints the catalogue: every experiment with its
// overridable parameters — the reference for writing experiments.json
// rows.
func listExperiments() {
	fmt.Println("experiments (run as rows of experiments.json):")
	for _, exp := range gridRegistry().List() {
		fmt.Printf("  %-5s %s\n", exp.ID, exp.Name)
		if len(exp.Params) == 0 {
			fmt.Printf("        (no overridable parameters)\n")
			continue
		}
		width := 0
		for _, s := range exp.Params {
			if len(s.Name) > width {
				width = len(s.Name)
			}
		}
		for _, s := range exp.Params {
			pad := strings.Repeat(" ", width-len(s.Name))
			fmt.Printf("        %s%s = %-8g %s\n", s.Name, pad, s.Default, s.Doc)
		}
	}
	fmt.Println("\ngrid rows additionally accept: repeats (>= 1), seed (base; repeat r runs at seed+r), note")
}
