// Command benchmark is the real-stack performance ledger: it boots two
// disk-backed storage nodes behind TCP servers on loopback, drives one
// named workload through the public Cluster API, checks every result,
// and prints every metric by name with its unit. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that what it defers happens.
func run() int {
	var (
		name     = flag.String("workload", "", "workload name, or \"all\"")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: traced run, cut-point replays and layer loops (per-layer metrics); 0: end-to-end metrics")
		scale    = flag.String("scale", "full", "full, or tiny for the smoke test")
		dataRoot = flag.String("data-root", ".bench_build/data", "directory for node data, removed afterwards")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default <data-root>/../trace-<workload>.json)")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's contract, read by -selfcheck and -derive-bounds")
		check    = flag.Bool("selfcheck", false, "run every workload twice and fail if the two disagree beyond the bounds in -spec")
		derive   = flag.Bool("derive-bounds", false, "run every workload -repeats times and print the bounds the spread implies")
		repeats  = flag.Int("repeats", 5, "runs per workload for -derive-bounds")
		spinFor  = flag.Int("idle-spin", 0, "internal: spin at idle priority while this process is the parent (pin_linux.go)")
	)
	flag.Parse()
	if *spinFor != 0 {
		idleSpin(*spinFor)
		return 0
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*scale != "full" && *scale != "tiny") {
		flag.Usage()
		return 2
	}
	if *check || *derive {
		sp, err := readSpec(*specPath)
		if err == nil && *check {
			err = selfCheck(os.Stdout, sp, *seed, float64(sp.RunSeconds), *dataRoot)
		} else if err == nil {
			err = deriveBounds(os.Stdout, sp, *seed, *repeats, float64(sp.RunSeconds), *dataRoot)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	defs := workloadDefs
	if *name != "all" {
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; the workloads are:\n", *name)
			for _, w := range workloadDefs {
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
			}
			return 2
		}
		defs = []workloadDef{def}
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	stopSpinner, err := keepCPUBusy()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer stopSpinner()
	allCorrect := true
	for _, def := range defs {
		c := runConfig{
			def: def, seed: *seed, seconds: *seconds, tiny: *scale == "tiny",
			dataRoot: *dataRoot, traceOut: *traceOut, out: os.Stdout,
		}
		runOne := endToEnd
		if *trace != 0 {
			runOne = traced
		}
		_, res, err := runOne(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if err := res.writeLine(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		return 1
	}
	return 0
}
