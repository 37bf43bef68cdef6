// Command scads-vet runs the repo's custom static analyzers — the
// mechanical enforcement of invariants the test suite can only probe:
//
//	determinism      no wall clock / ambient randomness / map-order
//	                 leaks in the elastic control plane (e16's
//	                 bit-identical-metrics contract)
//	rpcretry         the router reaches the transport only through
//	                 the request-execution primitive
//	panicdiscipline  panic on non-constant data only in Must* funcs
//	locksafety       no Lock() without an Unlock path (copied locks
//	                 are go vet's copylocks)
//
// Usage:
//
//	go run ./cmd/scads-vet ./...            # whole tree (the CI gate)
//	go run ./cmd/scads-vet ./internal/sla   # one package
//	go run ./cmd/scads-vet -run determinism ./...
//	go run ./cmd/scads-vet -list
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings
// are suppressed in place with a reasoned //lint:KEY-ok comment; bare
// or stale suppressions are themselves findings, so the gate fails on
// any suppression lacking a reason string.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"scads/internal/lint"
	"scads/internal/lint/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "only run analyzers whose name matches this regexp")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scads-vet [-list] [-run regexp] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scads-vet: bad -run regexp: %v\n", err)
			os.Exit(2)
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}

	pkgs, err := analysis.Load(analysis.LoadConfig{}, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scads-vet: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	total := 0
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scads-vet: %v\n", err)
				os.Exit(2)
			}
			for _, d := range diags {
				if cwd != "" {
					if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
						d.Pos.Filename = rel
					}
				}
				fmt.Println(d)
				total++
			}
		}
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "scads-vet: %d finding(s)\n", total)
		os.Exit(1)
	}
}
