// Package consistency implements the paper's declarative
// consistency-performance specification (§3.3, Figure 4). Developers
// state what correctness means per namespace along five axes —
// performance SLA, write consistency, read consistency (staleness
// bound), session guarantees, and a durability SLA — plus a priority
// ordering that tells the system which requirement to sacrifice when
// real-world conditions make them contend.
package consistency

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// WriteMode selects how write conflicts are handled (Figure 4, row 2).
type WriteMode int

const (
	// LastWriteWins applies eventual consistency with version-ordered
	// convergence — the relaxed end of the spectrum.
	LastWriteWins WriteMode = iota
	// MergeFunction resolves conflicting writes through a
	// developer-supplied merge function.
	MergeFunction
	// Serializable makes each write of a key apply only on top of the
	// row it read, as in a traditional RDBMS: the primary refuses it
	// otherwise, and the write runs again on the row that landed.
	Serializable
)

// String implements fmt.Stringer.
func (m WriteMode) String() string {
	switch m {
	case LastWriteWins:
		return "last-write-wins"
	case MergeFunction:
		return "merge"
	case Serializable:
		return "serializable"
	default:
		return fmt.Sprintf("writemode(%d)", int(m))
	}
}

// SessionLevel selects Terry-style session guarantees (Figure 4, row 4).
type SessionLevel int

const (
	// SessionNone applies no per-session guarantee.
	SessionNone SessionLevel = iota
	// MonotonicReads: successive reads never go backwards in time.
	MonotonicReads
	// ReadYourWrites: a session always observes its own writes (and,
	// in this implementation, is also monotonic).
	ReadYourWrites
)

// String implements fmt.Stringer.
func (s SessionLevel) String() string {
	switch s {
	case SessionNone:
		return "none"
	case MonotonicReads:
		return "monotonic-reads"
	case ReadYourWrites:
		return "read-your-writes"
	default:
		return fmt.Sprintf("session(%d)", int(s))
	}
}

// Axis names one of the five consistency axes for priority ordering.
type Axis string

// The orderable axes (§3.3.1's example orders availability against
// read consistency).
const (
	AxisAvailability    Axis = "availability"
	AxisReadConsistency Axis = "read-consistency"
	AxisDurability      Axis = "durability"
	AxisPerformance     Axis = "performance"
)

// PerformanceSLA is the latency/availability requirement (Figure 4,
// row 1): "99.9% of requests succeed in <100ms".
type PerformanceSLA struct {
	// Percentile of requests that must meet the latency bound,
	// e.g. 99.9.
	Percentile float64
	// LatencyBound each request at the percentile must beat.
	LatencyBound time.Duration
	// SuccessRate is the availability floor in percent, e.g. 99.99.
	SuccessRate float64
}

// Zero reports whether the SLA is unset.
func (p PerformanceSLA) Zero() bool {
	return p.Percentile == 0 && p.LatencyBound == 0 && p.SuccessRate == 0
}

// Spec is one namespace's declared consistency contract.
type Spec struct {
	Namespace string

	Performance PerformanceSLA

	Write WriteMode
	// MergeName names the registered merge function when Write is
	// MergeFunction.
	MergeName string

	// Staleness is the read-consistency bound: "stale data gone within
	// 10 minutes". Zero means no bound was declared.
	Staleness time.Duration

	Session SessionLevel

	// Durability is the probability committed writes persist,
	// e.g. 0.99999. Zero means no durability SLA declared.
	Durability float64

	// Priorities orders axes from most to least important; when
	// requirements contend (e.g. a partition makes both availability
	// and the staleness bound unsatisfiable), the higher axis wins.
	Priorities []Axis
}

// Validate checks internal coherence of the spec.
func (s Spec) Validate() error {
	if s.Namespace == "" {
		return errors.New("consistency: spec has no namespace")
	}
	if p := s.Performance.Percentile; p < 0 || p > 100 {
		return fmt.Errorf("consistency: percentile %v out of range", p)
	}
	if s.Performance.SuccessRate < 0 || s.Performance.SuccessRate > 100 {
		return fmt.Errorf("consistency: success rate %v out of range", s.Performance.SuccessRate)
	}
	if s.Write == MergeFunction && s.MergeName == "" {
		return errors.New("consistency: merge write mode requires a merge function name")
	}
	if s.Write != MergeFunction && s.MergeName != "" {
		return errors.New("consistency: merge function given but write mode is not merge")
	}
	if s.Staleness < 0 {
		return errors.New("consistency: negative staleness bound")
	}
	if s.Durability < 0 || s.Durability >= 1 {
		return fmt.Errorf("consistency: durability %v must be a probability in [0,1)", s.Durability)
	}
	seen := map[Axis]bool{}
	for _, a := range s.Priorities {
		switch a {
		case AxisAvailability, AxisReadConsistency, AxisDurability, AxisPerformance:
		default:
			return fmt.Errorf("consistency: unknown axis %q", a)
		}
		if seen[a] {
			return fmt.Errorf("consistency: axis %q repeated in priorities", a)
		}
		seen[a] = true
	}
	return nil
}

// Prefers reports whether axis a outranks axis b under the spec's
// declared priorities. Axes not listed rank below all listed axes;
// between two unlisted axes the result is false (no preference).
func (s Spec) Prefers(a, b Axis) bool {
	ia, ib := s.axisRank(a), s.axisRank(b)
	return ia < ib
}

func (s Spec) axisRank(a Axis) int {
	for i, x := range s.Priorities {
		if x == a {
			return i
		}
	}
	return len(s.Priorities) + 1
}

// String renders the spec in the DSL syntax (parseable by Parse).
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "namespace %s {\n", s.Namespace)
	if !s.Performance.Zero() {
		fmt.Fprintf(&b, "  performance: %g%% reads < %s, %g%% success;\n",
			s.Performance.Percentile, s.Performance.LatencyBound, s.Performance.SuccessRate)
	}
	switch s.Write {
	case MergeFunction:
		fmt.Fprintf(&b, "  write: merge(%s);\n", s.MergeName)
	default:
		fmt.Fprintf(&b, "  write: %s;\n", s.Write)
	}
	if s.Staleness > 0 {
		fmt.Fprintf(&b, "  staleness: %s;\n", s.Staleness)
	}
	if s.Session != SessionNone {
		fmt.Fprintf(&b, "  session: %s;\n", s.Session)
	}
	if s.Durability > 0 {
		fmt.Fprintf(&b, "  durability: %.6g%%;\n", s.Durability*100)
	}
	if len(s.Priorities) > 0 {
		parts := make([]string, len(s.Priorities))
		for i, a := range s.Priorities {
			parts[i] = string(a)
		}
		fmt.Fprintf(&b, "  priority: %s;\n", strings.Join(parts, " > "))
	}
	b.WriteString("}\n")
	return b.String()
}

// --- durability SLA math (Figure 4, row 5) ---

// RequiredReplicas returns the smallest replication factor r such that
// the probability of losing all r replicas within one repair window is
// at most 1-target, assuming independent per-node failure probability
// pFail within that window. This is the calculation the system runs
// when a developer declares "data must persist with 99.999%
// probability" and the failure model estimates pFail.
func RequiredReplicas(pFail, target float64) (int, error) {
	if pFail <= 0 || pFail >= 1 {
		return 0, fmt.Errorf("consistency: node failure probability %v out of (0,1)", pFail)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("consistency: durability target %v out of (0,1)", target)
	}
	// Loss requires all r replicas to fail before repair: pFail^r.
	// Want pFail^r <= 1-target  =>  r >= log(1-target)/log(pFail).
	r := int(math.Ceil(math.Log(1-target) / math.Log(pFail)))
	if r < 1 {
		r = 1
	}
	return r, nil
}

// SurvivalProbability returns 1 - pFail^replicas: the probability at
// least one replica survives a repair window.
func SurvivalProbability(pFail float64, replicas int) float64 {
	if replicas <= 0 {
		return 0
	}
	return 1 - math.Pow(pFail, float64(replicas))
}

// SortSpecs orders specs by namespace for stable output.
func SortSpecs(specs []Spec) {
	sort.Slice(specs, func(i, j int) bool { return specs[i].Namespace < specs[j].Namespace })
}

// MonteCarloSurvival estimates the probability that at least one of
// `replicas` replicas survives a repair window by simulation: each
// trial fails each replica independently with probability pFail. It
// cross-checks the closed-form SurvivalProbability in experiment E4e.
func MonteCarloSurvival(pFail float64, replicas, trials int, seed int64) float64 {
	if replicas <= 0 || trials <= 0 {
		return 0
	}
	rnd := rand.New(rand.NewSource(seed))
	survived := 0
	for t := 0; t < trials; t++ {
		for r := 0; r < replicas; r++ {
			if rnd.Float64() >= pFail {
				survived++
				break
			}
		}
	}
	return float64(survived) / float64(trials)
}
