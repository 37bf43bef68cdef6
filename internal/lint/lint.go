// Package lint is the repository's static-invariant gate: four
// analyzers over code loaded through the go command, run by
// TestTreeClean over this module and the benchmark module. See
// ARCHITECTURE.md "Static invariants" for the contract each analyzer
// guards.
//
// A finding is silenced in place with a line comment of the form
//
//	rec.process() //lint:KEY-ok the reason this is deliberate
//
// on the flagged line or alone on the line directly above it, where
// KEY is the finding's suppression key (each analyzer documents its
// keys). The reason is mandatory: a bare suppression is itself
// reported, and so is a suppression that silences nothing, so stale
// escapes cannot accumulate.
package lint

// Production scope for the determinism pass: the packages whose
// outputs the e16 gate requires to be bit-identical across runs (the
// elastic control plane runs entirely on the virtual clock), plus the
// root-package file that resizes a real cluster on that loop's behalf
// (LocalCluster.Resize: which nodes it releases must not depend on map
// order or the wall clock).
var (
	DeterminismPackages = []string{
		"scads/internal/director",
		"scads/internal/mlmodel",
		"scads/internal/sla",
		"scads/internal/workload",
		"scads/internal/cloudsim",
		"scads/internal/sim",
		"scads/internal/clock",
		// The one deadline heap: the virtual clock fires its timers and
		// e16's pump delivers in the heap's pop order.
		"scads/internal/deadline",
		// The experiment-grid harness: fixed-seed rows must replay to
		// bit-identical runs.csv / summary_grouped.csv bytes, so no
		// wall-clock or unseeded randomness in parse/aggregate/report
		// paths (the Runner times repeats through an injected Clock).
		"scads/internal/expgrid",
		// The front-door admission controller: token-bucket refill and
		// hot-tenant windows run off the injected clock so the e18
		// shed-order gates replay deterministically.
		"scads/internal/admission",
		// The coordinator's background subsystems: repair sweeps,
		// migrations and pump rounds are steps a virtual clock replays,
		// so crash → failover → re-replicate runs the same every time.
		"scads/internal/repair",
		"scads/internal/migration",
		"scads/internal/replication",
	}
	DeterminismFiles = []string{
		"scads:elastic.go",
	}

	// RetryCheckedPackages are the coordinator packages bound by the
	// request-execution contract: the router is the only one that
	// touches the transport on a request path.
	RetryCheckedPackages = []string{"scads/internal/partition"}
)

// Analyzers returns the production-configured suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(DeterminismPackages, DeterminismFiles),
		NewRPCRetry(RetryCheckedPackages),
		NewPanicDiscipline(),
		NewLockSafety(),
	}
}
