// Package expgrid is the declarative experiment-grid harness behind
// scads-bench. A committed experiments.json declares grid rows — each
// names a registered experiment, its parameter overrides (value
// sizes, skew, replication factor, node counts, cache bytes, ...), a
// repeat count and a base seed — and one runner executes the whole
// grid: every repeat runs through the experiment's Run hook with a
// deterministically derived seed, per-repeat metric rows land in a
// schema-validated runs.csv, and the aggregator groups them into
// mean/std/min/max summaries (summary_grouped.csv plus a markdown
// report diffed against the committed BENCH_*.json baselines).
//
// The package is inside internal/lint's determinism scope: it reads
// time only through an injected clock.Clock, takes randomness only as
// caller-provided seeds, and never lets map iteration order reach an
// output — so a grid run with fixed seeds is bit-identical on its
// control-plane rows.
package expgrid

import (
	"fmt"
	"sort"
)

// ParamSpec declares one grid-overridable knob of an experiment. All
// parameters are float64 on the wire (JSON numbers); integral knobs
// read them back through Params.Int.
type ParamSpec struct {
	Name    string
	Default float64
	Doc     string
}

// Metrics is the typed result of one experiment repeat: gated metric
// name -> value, the same shape BENCH_*.json summaries carry.
type Metrics map[string]float64

// Params carries the resolved parameter values for one repeat:
// experiment defaults overlaid with the grid row's overrides, plus
// the repeat's derived seed. Experiments must draw every random
// stream from Seed (or values derived from it) so a row is
// reproducible from its JSON declaration alone.
type Params struct {
	values map[string]float64
	// Seed is this repeat's RNG seed: the row's base seed plus the
	// zero-based repeat index, so repeats are independent but the
	// whole row replays identically from the same declaration.
	Seed int64
	// Repeat is the zero-based repeat index within the row.
	Repeat int
}

// NewParams builds a resolved parameter set: the specs' defaults
// overlaid with overrides. Unknown override names are rejected by
// grid validation before any run, so this constructor trusts its
// input.
func NewParams(specs []ParamSpec, overrides map[string]float64, seed int64, repeat int) Params {
	v := make(map[string]float64, len(specs))
	for _, s := range specs {
		v[s.Name] = s.Default
	}
	for name, val := range overrides {
		v[name] = val
	}
	return Params{values: v, Seed: seed, Repeat: repeat}
}

// Get returns the resolved value of a declared parameter. Asking for
// an undeclared name is a programming error in the experiment and
// panics: the registry guarantees every declared spec has a value.
func (p Params) Get(name string) float64 {
	v, ok := p.values[name]
	if !ok {
		//lint:panic-ok an experiment reading a parameter it never declared is a compile-time-style registry bug, not dynamic input: grid validation already rejected unknown override names
		panic("expgrid: experiment read undeclared parameter " + name)
	}
	return v
}

// Int returns a declared parameter truncated to int.
func (p Params) Int(name string) int { return int(p.Get(name)) }

// Experiment is one registered, grid-runnable experiment: a stable
// id, a human-readable name, the declared overridable parameters, and
// the run hook (params in, typed metrics out). Run must be
// self-contained — hard invariant gates inside it (lost updates,
// wrong reads) may abort the process, but ordinary failures should
// surface as an error so the runner can attribute them to a row.
type Experiment struct {
	ID     string
	Name   string
	Params []ParamSpec
	Run    func(p Params) (Metrics, error)
}

// Registry holds the grid-runnable experiments in registration order.
type Registry struct {
	ordered []Experiment
	byID    map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]int)}
}

// Register adds an experiment. Duplicate ids, missing run hooks and
// duplicate parameter names are programming errors and panic at
// startup rather than corrupting a grid run later.
func (r *Registry) Register(e Experiment) {
	if e.ID == "" || e.Run == nil {
		panic("expgrid: experiment needs an ID and a Run hook")
	}
	if _, dup := r.byID[e.ID]; dup {
		//lint:panic-ok registration runs at process startup on compiled-in experiment tables; a duplicate id is a programming error that must stop the binary before any grid row runs
		panic("expgrid: duplicate experiment " + e.ID)
	}
	seen := make(map[string]bool, len(e.Params))
	for _, s := range e.Params {
		if s.Name == "" || seen[s.Name] {
			//lint:panic-ok same startup-time registration invariant as duplicate ids: the parameter table is compiled in, never user input
			panic(fmt.Sprintf("expgrid: experiment %s declares duplicate or empty parameter %q", e.ID, s.Name))
		}
		seen[s.Name] = true
	}
	r.byID[e.ID] = len(r.ordered)
	r.ordered = append(r.ordered, e)
}

// Lookup returns the experiment registered under id.
func (r *Registry) Lookup(id string) (Experiment, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Experiment{}, false
	}
	return r.ordered[i], true
}

// List returns every registered experiment in registration order.
func (r *Registry) List() []Experiment {
	return append([]Experiment(nil), r.ordered...)
}

// sortedKeys returns a map's keys in ascending order — the only way
// map contents may reach ordered output or float accumulation in this
// package (the determinism analyzer enforces it).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
