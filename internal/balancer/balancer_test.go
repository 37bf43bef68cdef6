package balancer

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%03d", i+1)
	}
	return out
}

func TestPlanBalancedClusterNoActions(t *testing.T) {
	loads := []RangeLoad{
		{Namespace: "tbl_a", Start: nil, Replicas: []string{"node-001"}, Ops: 1000},
		{Namespace: "tbl_a", Start: []byte("m"), Replicas: []string{"node-002"}, Ops: 1000},
		{Namespace: "tbl_b", Start: nil, Replicas: []string{"node-003"}, Ops: 1000},
	}
	if plan := Plan(loads, nodes(3), Config{}); len(plan) != 0 {
		t.Fatalf("balanced cluster produced plan: %v", plan)
	}
}

func TestPlanIdleWindowNoActions(t *testing.T) {
	loads := []RangeLoad{
		{Namespace: "tbl_a", Start: nil, Replicas: []string{"node-001"}, Ops: 50},
	}
	if plan := Plan(loads, nodes(3), Config{}); len(plan) != 0 {
		t.Fatalf("idle window produced plan: %v", plan)
	}
}

func TestPlanMovesOffHotNode(t *testing.T) {
	// node-001 is the primary of every range; everything else idle.
	loads := []RangeLoad{
		{Namespace: "tbl_a", Start: nil, Replicas: []string{"node-001", "node-002"}, Ops: 600},
		{Namespace: "tbl_a", Start: []byte("h"), Replicas: []string{"node-001", "node-003"}, Ops: 500},
		{Namespace: "tbl_a", Start: []byte("p"), Replicas: []string{"node-001", "node-002"}, Ops: 400},
	}
	plan := Plan(loads, nodes(3), Config{SplitFraction: 10 /* no splits */})
	if len(plan) == 0 {
		t.Fatal("skewed cluster produced empty plan")
	}
	for _, a := range plan {
		if a.Kind != ActionMove {
			t.Fatalf("want only moves, got %v", a)
		}
		if a.Target[0] == "node-001" {
			t.Fatalf("move kept the hot primary: %v", a)
		}
	}
}

func TestPlanMovesReduceImbalance(t *testing.T) {
	loads := []RangeLoad{
		{Namespace: "t", Start: nil, Replicas: []string{"node-001"}, Ops: 500},
		{Namespace: "t", Start: []byte("b"), Replicas: []string{"node-001"}, Ops: 400},
		{Namespace: "t", Start: []byte("c"), Replicas: []string{"node-001"}, Ops: 300},
		{Namespace: "t", Start: []byte("d"), Replicas: []string{"node-002"}, Ops: 100},
	}
	ns := nodes(3)
	plan := Plan(loads, ns, Config{SplitFraction: 10})

	// Apply the plan to a load model and verify the max/mean ratio
	// strictly improves.
	loadOf := func(ls []RangeLoad) map[string]float64 {
		m := map[string]float64{}
		for _, n := range ns {
			m[n] = 0
		}
		for _, rl := range ls {
			m[rl.Replicas[0]] += rl.Ops
		}
		return m
	}
	before := maxLoad(loadOf(loads))
	after := append([]RangeLoad(nil), loads...)
	for _, a := range plan {
		for i := range after {
			if after[i].Namespace == a.Namespace && bytes.Equal(after[i].Start, a.Start) {
				after[i].Replicas = a.Target
			}
		}
	}
	if got := maxLoad(loadOf(after)); got >= before {
		t.Fatalf("plan did not reduce max node load: %v -> %v\nplan: %v", before, got, plan)
	}
}

func maxLoad(m map[string]float64) float64 {
	var max float64
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

func TestPlanSplitsHotRange(t *testing.T) {
	// One range carries almost everything and has a split candidate.
	loads := []RangeLoad{
		{Namespace: "t", Start: nil, Replicas: []string{"node-001"}, Ops: 5000,
			SplitKey: []byte("celebrity")},
		{Namespace: "t", Start: []byte("x"), Replicas: []string{"node-002"}, Ops: 100},
	}
	plan := Plan(loads, nodes(2), Config{})
	var split *Action
	for i := range plan {
		if plan[i].Kind == ActionSplit {
			split = &plan[i]
		}
	}
	if split == nil {
		t.Fatalf("hot range not split: %v", plan)
	}
	if !bytes.Equal(split.At, []byte("celebrity")) {
		t.Fatalf("split at %q, want the tracker's median", split.At)
	}
}

func TestPlanHotRangeWithoutSplitKeyNotSplit(t *testing.T) {
	// A single-key hotspot cannot be split; the planner must not emit
	// a split without a candidate key.
	loads := []RangeLoad{
		{Namespace: "t", Start: nil, Replicas: []string{"node-001"}, Ops: 5000},
		{Namespace: "t", Start: []byte("x"), Replicas: []string{"node-002"}, Ops: 100},
	}
	for _, a := range Plan(loads, nodes(2), Config{}) {
		if a.Kind == ActionSplit {
			t.Fatalf("split emitted without a candidate key: %v", a)
		}
	}
}

func TestPlanRespectsMaxMoves(t *testing.T) {
	var loads []RangeLoad
	for i := 0; i < 20; i++ {
		loads = append(loads, RangeLoad{
			Namespace: "t", Start: []byte{byte(i)},
			Replicas: []string{"node-001"}, Ops: 100,
		})
	}
	plan := Plan(loads, nodes(4), Config{SplitFraction: 10})
	moves := 0
	for _, a := range plan {
		if a.Kind == ActionMove {
			moves++
		}
	}
	if moves != maxMoves {
		t.Fatalf("%d moves, want the bound %d", moves, maxMoves)
	}
}

func TestPlanDeterministic(t *testing.T) {
	loads := []RangeLoad{
		{Namespace: "t", Start: []byte("m"), Replicas: []string{"node-001"}, Ops: 700},
		{Namespace: "t", Start: nil, Replicas: []string{"node-001"}, Ops: 900},
		{Namespace: "u", Start: nil, Replicas: []string{"node-002"}, Ops: 50},
	}
	a := Plan(loads, nodes(3), Config{SplitFraction: 10})
	b := Plan(loads, nodes(3), Config{SplitFraction: 10})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plans differ:\n%v\n%v", a, b)
	}
}

func TestPlanSingleNodeNoActions(t *testing.T) {
	loads := []RangeLoad{
		{Namespace: "t", Start: nil, Replicas: []string{"node-001"}, Ops: 10000},
	}
	if plan := Plan(loads, nodes(1), Config{}); plan != nil {
		t.Fatalf("single-node cluster produced plan: %v", plan)
	}
}

func TestPlanMovePreservesReplicationFactor(t *testing.T) {
	loads := []RangeLoad{
		{Namespace: "t", Start: nil, Replicas: []string{"node-001", "node-002"}, Ops: 900},
		{Namespace: "t", Start: []byte("m"), Replicas: []string{"node-001", "node-002"}, Ops: 800},
	}
	for _, a := range Plan(loads, nodes(3), Config{SplitFraction: 10}) {
		if a.Kind == ActionMove && len(a.Target) != 2 {
			t.Fatalf("move changed replication factor: %v", a)
		}
	}
}

func TestPlanNeverTargetsDuplicateReplicas(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%4) + 2
		var loads []RangeLoad
		for i := 0; i <= int(seed%8); i++ {
			loads = append(loads, RangeLoad{
				Namespace: "t", Start: []byte{byte(i)},
				Replicas: []string{
					fmt.Sprintf("node-%03d", int(seed+uint8(i))%n+1),
					fmt.Sprintf("node-%03d", int(seed+uint8(3*i))%n+1),
				},
				Ops: float64(50 * (i + 1)),
			})
		}
		for _, a := range Plan(loads, nodes(n), Config{}) {
			seen := map[string]bool{}
			for _, id := range a.Target {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRetarget(t *testing.T) {
	got := retarget([]string{"a", "b", "c"}, "b", "z")
	if !reflect.DeepEqual(got, []string{"a", "z", "c"}) {
		t.Fatalf("retarget = %v", got)
	}
	// Target already a secondary: swap roles, keep the factor.
	got = retarget([]string{"a", "b"}, "a", "b")
	if !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("retarget swap = %v", got)
	}
	// from absent: to becomes primary.
	got = retarget([]string{"a", "b"}, "x", "z")
	if !reflect.DeepEqual(got, []string{"z", "b"}) {
		t.Fatalf("retarget absent = %v", got)
	}
	// from absent, to already a secondary: promote it.
	got = retarget([]string{"a", "b"}, "x", "b")
	if !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("retarget promote = %v", got)
	}
}

func TestTrackerCountsAndSnapshot(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 10; i++ {
		tr.Record("tbl_users", nil, []byte(fmt.Sprintf("user%02d", i)))
	}
	tr.Record("tbl_users", []byte("m"), []byte("mary"))
	obs := tr.Snapshot()
	if len(obs) != 2 {
		t.Fatalf("snapshot ranges = %d, want 2", len(obs))
	}
	if obs[0].Ops != 10 || obs[1].Ops != 1 {
		t.Fatalf("ops = %v / %v", obs[0].Ops, obs[1].Ops)
	}
	if obs[0].MedianKey == nil {
		t.Fatal("10 distinct keys should yield a median split candidate")
	}
	if obs[1].MedianKey != nil {
		t.Fatal("single-key range must not propose a split")
	}
}

func TestTrackerMedianInsideRange(t *testing.T) {
	tr := NewTracker()
	// All keys equal to the range start: median == start -> no split.
	for i := 0; i < 5; i++ {
		tr.Record("t", []byte("k"), []byte("k"))
	}
	if obs := tr.Snapshot(); obs[0].MedianKey != nil {
		t.Fatalf("median %q not strictly inside range", obs[0].MedianKey)
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker()
	tr.Record("t", nil, []byte("a"))
	tr.Reset()
	if len(tr.ranges) != 0 || len(tr.Snapshot()) != 0 {
		t.Fatal("reset did not clear the window")
	}
}

func TestTrackerSampleBounded(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 10*sampleSize; i++ {
		tr.Record("t", nil, []byte(fmt.Sprintf("key%05d", i)))
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, byStart := range tr.ranges {
		for _, st := range byStart {
			if len(st.sample) > sampleSize {
				t.Fatalf("sample grew to %d > %d", len(st.sample), sampleSize)
			}
		}
	}
}

// TestTrackerRecordAllocs pins that recording into a range already seen
// allocates nothing: the coordinator records every routed read and write.
func TestTrackerRecordAllocs(t *testing.T) {
	tr := NewTracker()
	start := []byte("range-start")
	keys := make([][]byte, 2*sampleSize)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", i))
		tr.Record("tbl.users", start, keys[i])
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.Record("tbl.users", start, keys[i%len(keys)])
		i++
	}); n != 0 {
		t.Fatalf("Record into a seen range allocates %.1f times, want 0", n)
	}
}

func TestTrackerSnapshotDeterministic(t *testing.T) {
	build := func() []RangeObservation {
		tr := NewTracker()
		for i := 0; i < 100; i++ {
			tr.Record("b", []byte("x"), []byte(fmt.Sprintf("k%03d", i%7)))
			tr.Record("a", nil, []byte(fmt.Sprintf("k%03d", i%13)))
		}
		return tr.Snapshot()
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("snapshots differ across identical runs")
	}
}

func TestActionString(t *testing.T) {
	split := Action{Kind: ActionSplit, Namespace: "t", At: []byte("m"), Reason: "hot"}
	move := Action{Kind: ActionMove, Namespace: "t", Target: []string{"n"}, Reason: "r"}
	if split.String() == "" || move.String() == "" {
		t.Fatal("empty action strings")
	}
	if ActionSplit.String() != "split" || ActionMove.String() != "move" {
		t.Fatal("kind strings")
	}
}
