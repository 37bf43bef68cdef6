package consistency

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const fullSpec = `
# The paper's Figure 4 example, as one namespace.
namespace profiles {
  performance: 99.9% reads < 100ms, 99.99% success;
  write: last-write-wins;
  staleness: 10m;
  session: read-your-writes;
  durability: 99.999%;
  priority: availability > read-consistency;
}
`

func TestParseFullSpec(t *testing.T) {
	specs, err := Parse(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("got %d specs", len(specs))
	}
	s := specs[0]
	if s.Namespace != "profiles" {
		t.Errorf("Namespace = %q", s.Namespace)
	}
	if s.Performance.Percentile != 99.9 || s.Performance.LatencyBound != 100*time.Millisecond || s.Performance.SuccessRate != 99.99 {
		t.Errorf("Performance = %+v", s.Performance)
	}
	if s.Write != LastWriteWins {
		t.Errorf("Write = %v", s.Write)
	}
	if s.Staleness != 10*time.Minute {
		t.Errorf("Staleness = %v", s.Staleness)
	}
	if s.Session != ReadYourWrites {
		t.Errorf("Session = %v", s.Session)
	}
	if math.Abs(s.Durability-0.99999) > 1e-9 {
		t.Errorf("Durability = %v", s.Durability)
	}
	if len(s.Priorities) != 2 || s.Priorities[0] != AxisAvailability || s.Priorities[1] != AxisReadConsistency {
		t.Errorf("Priorities = %v", s.Priorities)
	}
}

func TestParseMultipleBlocksAndModes(t *testing.T) {
	src := `
namespace wallposts {
  write: merge(union);
  staleness: 30s;
}
namespace accounts {
  write: serializable;
  session: monotonic-reads;
  priority: read-consistency > availability > durability;
}
`
	specs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Write != MergeFunction || specs[0].MergeName != "union" {
		t.Errorf("wallposts = %+v", specs[0])
	}
	if specs[1].Write != Serializable || specs[1].Session != MonotonicReads {
		t.Errorf("accounts = %+v", specs[1])
	}
	if !specs[1].Prefers(AxisReadConsistency, AxisAvailability) {
		t.Error("priority order not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"namespace {}",
		"namespace x { write: bogus-mode; }",
		"namespace x { write: merge(); }",
		"namespace x { staleness: sideways; }",
		"namespace x { durability: high; }",
		"namespace x { performance: 99% reads 100ms; }",
		"namespace x { session: psychic; }",
		"namespace x { priority: availability > availability; }",
		"namespace x { priority: availability > made-up-axis; }",
		"namespace x { write: last-write-wins; write: serializable; }",
		"namespace x { write: last-write-wins ",
		"namespace x { unknownclause: 5; }",
		"namespace x { staleness: 10m } ", // missing semicolon
		"namespace x { write: last-write-wins; } trailing",
		"namespace x { performance: 150% reads < 1s; }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSpecRoundTripThroughString(t *testing.T) {
	specs, err := Parse(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(specs[0].String())
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, specs[0].String())
	}
	if re[0].Namespace != specs[0].Namespace ||
		re[0].Staleness != specs[0].Staleness ||
		re[0].Session != specs[0].Session ||
		re[0].Write != specs[0].Write ||
		math.Abs(re[0].Durability-specs[0].Durability) > 1e-9 {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", specs[0], re[0])
	}
}

func TestPrefersUnlistedAxes(t *testing.T) {
	s := Spec{Namespace: "x", Priorities: []Axis{AxisAvailability}}
	if !s.Prefers(AxisAvailability, AxisReadConsistency) {
		t.Error("listed axis must outrank unlisted")
	}
	if s.Prefers(AxisReadConsistency, AxisDurability) || s.Prefers(AxisDurability, AxisReadConsistency) {
		t.Error("two unlisted axes must have no preference")
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Spec{
		{},
		{Namespace: "x", Write: MergeFunction},
		{Namespace: "x", MergeName: "union"},
		{Namespace: "x", Staleness: -time.Second},
		{Namespace: "x", Durability: 1.5},
		{Namespace: "x", Performance: PerformanceSLA{Percentile: -1}},
		{Namespace: "x", Priorities: []Axis{"nope"}},
		{Namespace: "x", Priorities: []Axis{AxisDurability, AxisDurability}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v) validated", i, s)
		}
	}
}

func TestRequiredReplicas(t *testing.T) {
	// 1% chance a node dies within a repair window; five nines target.
	r, err := RequiredReplicas(0.01, 0.99999)
	if err != nil {
		t.Fatal(err)
	}
	// 0.01^r <= 1e-5  =>  r >= 2.5  =>  3 replicas.
	if r != 3 {
		t.Fatalf("RequiredReplicas = %d, want 3", r)
	}
	// Relaxing durability (old comments, §3.3.1) saves replicas.
	r2, _ := RequiredReplicas(0.01, 0.99)
	if r2 >= r {
		t.Fatalf("relaxed target should need fewer replicas: %d vs %d", r2, r)
	}
	if _, err := RequiredReplicas(0, 0.5); err == nil {
		t.Error("pFail=0 accepted")
	}
	if _, err := RequiredReplicas(0.5, 1); err == nil {
		t.Error("target=1 accepted")
	}
}

func TestSurvivalProbability(t *testing.T) {
	if got := SurvivalProbability(0.1, 2); math.Abs(got-0.99) > 1e-12 {
		t.Fatalf("SurvivalProbability = %v", got)
	}
	if SurvivalProbability(0.1, 0) != 0 {
		t.Fatal("zero replicas must have zero survival")
	}
}

// Property: RequiredReplicas always achieves the target and is minimal.
func TestQuickRequiredReplicasTightness(t *testing.T) {
	f := func(pf, tgt float64) bool {
		pFail := 0.001 + math.Mod(math.Abs(pf), 0.998)
		target := 0.5 + math.Mod(math.Abs(tgt), 0.4999)
		r, err := RequiredReplicas(pFail, target)
		if err != nil {
			return false
		}
		if SurvivalProbability(pFail, r) < target {
			return false
		}
		return r == 1 || SurvivalProbability(pFail, r-1) < target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRegistryBuiltins(t *testing.T) {
	r := NewMergeRegistry()
	union, err := r.Lookup("union")
	if err != nil {
		t.Fatal(err)
	}
	got := union([]byte("b\na"), []byte("c\na"))
	if string(got) != "a\nb\nc" {
		t.Fatalf("union = %q", got)
	}
	max, _ := r.Lookup("max")
	if string(max([]byte("3"), []byte("11"))) != "11" {
		t.Fatal("numeric max failed")
	}
	min, _ := r.Lookup("min")
	if string(min([]byte("3"), []byte("11"))) != "3" {
		t.Fatal("numeric min failed")
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Fatal("unknown merge found")
	}
	r.Register("custom", func(a, b []byte) []byte { return a })
	if _, err := r.Lookup("custom"); err != nil {
		t.Fatal(err)
	}
}

// Property: UnionMerge is commutative, associative, and idempotent —
// the convergence conditions for merge-mode replication.
func TestQuickUnionMergeConvergence(t *testing.T) {
	f := func(a, b, c string) bool {
		A, B, C := []byte(a), []byte(b), []byte(c)
		comm := string(UnionMerge(A, B)) == string(UnionMerge(B, A))
		assoc := string(UnionMerge(UnionMerge(A, B), C)) == string(UnionMerge(A, UnionMerge(B, C)))
		idem := string(UnionMerge(A, A)) == string(UnionMerge(A, UnionMerge(A, A)))
		return comm && assoc && idem
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSerializerExcludesConcurrentRMW(t *testing.T) {
	s := NewSerializer(8)
	counter := 0
	var wg sync.WaitGroup
	const workers, iters = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Do("counters", []byte("hits"), func() error {
					counter++ // data race unless serialized
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*iters)
	}
}

func TestSerializerDifferentKeysDontBlock(t *testing.T) {
	s := NewSerializer(1024)
	release := make(chan struct{})
	holding := make(chan struct{})
	go s.Do("ns", []byte("key-a"), func() error {
		close(holding)
		<-release
		return nil
	})
	<-holding
	done := make(chan struct{})
	go func() {
		s.Do("ns", []byte("key-b"), func() error { return nil })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("different key blocked (and not by stripe collision at 1024 stripes... unlucky hash?)")
	}
	close(release)
}

func TestWriteModeAndSessionStrings(t *testing.T) {
	if LastWriteWins.String() != "last-write-wins" || Serializable.String() != "serializable" || MergeFunction.String() != "merge" {
		t.Fatal("WriteMode strings")
	}
	if SessionNone.String() != "none" || MonotonicReads.String() != "monotonic-reads" || ReadYourWrites.String() != "read-your-writes" {
		t.Fatal("SessionLevel strings")
	}
	if !strings.Contains(WriteMode(42).String(), "42") {
		t.Fatal("unknown write mode string")
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	for _, r := range []int{1, 2, 3, 5} {
		mc := MonteCarloSurvival(0.05, r, 200000, 42)
		cf := SurvivalProbability(0.05, r)
		if math.Abs(mc-cf) > 0.005 {
			t.Fatalf("r=%d: MC %v vs closed form %v", r, mc, cf)
		}
	}
	if MonteCarloSurvival(0.5, 0, 100, 1) != 0 || MonteCarloSurvival(0.5, 1, 0, 1) != 0 {
		t.Fatal("degenerate inputs")
	}
}
