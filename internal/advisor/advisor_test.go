package advisor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/analyzer"
	"scads/internal/mlmodel"
	"scads/internal/planner"
	"scads/internal/query"
)

// socialDDL is the paper's §3.2 social network.
const socialDDL = `
ENTITY profiles (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY getProfile
SELECT * FROM profiles WHERE id = ?user LIMIT 1

QUERY friendBirthdays
SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`

func compileSocial(t *testing.T) (*query.Schema, map[string]*analyzer.Result, *planner.Output) {
	t.Helper()
	s, err := query.Parse(socialDDL)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	results, err := analyzer.Analyze(s, analyzer.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out, err := planner.Compile(s, results)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return s, results, out
}

func socialWorkload() Workload {
	return Workload{
		QueryRates:  map[string]float64{"getProfile": 800, "friendBirthdays": 200},
		UpdateRates: map[string]float64{"profiles": 20, "friendships": 5},
		TableRows:   map[string]int{"profiles": 1_000_000, "friendships": 20_000_000},
	}
}

// analytic is the closed-form capacity curve a deployment sizes with
// on day one, before a CapacityModel has history to fit.
func analytic() mlmodel.Curve {
	return mlmodel.Curve{Capacity: 500, Base: 0.002, K: 0.030}
}

func TestAdviseSocialNetwork(t *testing.T) {
	s, results, out := compileSocial(t)
	rep, err := Advise(s, results, nil, out, socialWorkload(), Config{Capacity: analytic()})
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if len(rep.Queries) != 2 {
		t.Fatalf("want 2 query advices, got %d", len(rep.Queries))
	}
	for _, q := range rep.Queries {
		if !q.Accepted {
			t.Errorf("query %s unexpectedly rejected: %s", q.Query, q.Reason)
		}
		if q.ServersTouched < 1 {
			t.Errorf("query %s: ServersTouched = %d", q.Query, q.ServersTouched)
		}
		if q.PredictedLatency <= 0 {
			t.Errorf("query %s: no latency prediction", q.Query)
		}
	}
	if len(rep.Indexes) == 0 {
		t.Fatal("expected at least one materialized structure")
	}
	if rep.Cluster.Servers < 1 {
		t.Errorf("Servers = %d, want >= 1", rep.Cluster.Servers)
	}
	if rep.Cluster.MonthlyTotalUSD <= 0 {
		t.Errorf("MonthlyTotalUSD = %v, want > 0", rep.Cluster.MonthlyTotalUSD)
	}
	if rep.Cluster.StorageBytes <= 0 {
		t.Error("no storage estimate")
	}
}

func TestAdviseJoinViewStorageScalesWithFanout(t *testing.T) {
	s, results, out := compileSocial(t)
	w := socialWorkload()
	rep, err := Advise(s, results, nil, out, w, Config{Capacity: analytic()})
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	var joinView *IndexAdvice
	for i := range rep.Indexes {
		if rep.Indexes[i].ServesQuery == "friendBirthdays" {
			joinView = &rep.Indexes[i]
		}
	}
	if joinView == nil {
		t.Fatal("no index serves friendBirthdays")
	}
	// The birthday view holds one entry per friendship edge.
	if joinView.Entries != w.TableRows["friendships"] {
		t.Errorf("join view entries = %d, want %d", joinView.Entries, w.TableRows["friendships"])
	}
	if joinView.StorageBytes <= int64(w.TableRows["friendships"]) {
		t.Errorf("join view storage %d implausibly small", joinView.StorageBytes)
	}
}

func TestAdviseWriteAmplification(t *testing.T) {
	s, results, out := compileSocial(t)
	rep, err := Advise(s, results, nil, out, socialWorkload(), Config{Capacity: analytic()})
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	// Friendship and profile writes both trigger index maintenance, so
	// amplification must exceed 1.
	if rep.Cluster.WriteAmplification <= 1 {
		t.Errorf("WriteAmplification = %v, want > 1", rep.Cluster.WriteAmplification)
	}
	if rep.Cluster.MaintenanceRate <= 0 {
		t.Errorf("MaintenanceRate = %v, want > 0", rep.Cluster.MaintenanceRate)
	}
}

func TestAdviseProfileWriteTouchesBoundedEntries(t *testing.T) {
	s, results, out := compileSocial(t)
	w := socialWorkload()
	rep, err := Advise(s, results, nil, out, w, Config{Capacity: analytic()})
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	// A profile (looked table) update fans out to at most the declared
	// friend cardinality (5000), and the expected-case estimate should
	// use the much smaller average degree (20M edges / 1M users = 20).
	var total float64
	for _, ia := range rep.Indexes {
		total += ia.MaintRatePerSec
	}
	profileRate := w.UpdateRates["profiles"]
	if total > profileRate*5000 {
		t.Errorf("maintenance rate %v exceeds worst-case bound", total)
	}
	if total <= 0 {
		t.Error("maintenance rate should be positive")
	}
}

func TestAdviseRejectedQueryCarriesReason(t *testing.T) {
	// Twitter-style: no cardinality bound on followee -> rejected.
	ddl := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY follows (
    follower string,
    followee string,
    PRIMARY KEY (follower, followee),
    CARDINALITY follower 5000
)
QUERY fanOut
SELECT u.* FROM follows f JOIN users u ON f.follower = u.id
WHERE f.followee = ?user LIMIT 100
`
	s, err := query.Parse(ddl)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	results := map[string]*analyzer.Result{}
	rejects := map[string]error{}
	for _, name := range s.QueryOrder {
		res, err := analyzer.AnalyzeQuery(s, s.Queries[name], analyzer.Config{MaxUpdateWork: 5000})
		if err != nil {
			rejects[name] = err
			continue
		}
		results[name] = res
	}
	out, err := planner.Compile(s, results)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := Advise(s, results, rejects, out, Workload{}, Config{Capacity: analytic()})
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if len(rep.Queries) != 1 {
		t.Fatalf("want 1 advice, got %d", len(rep.Queries))
	}
	q := rep.Queries[0]
	if q.Accepted {
		t.Fatal("unbounded query should be rejected")
	}
	if q.Reason == "" {
		t.Error("rejection should carry the analyzer's reason")
	}
}

func TestAdviseRequiresCapacity(t *testing.T) {
	s, results, out := compileSocial(t)
	if _, err := Advise(s, results, nil, out, socialWorkload(), Config{}); err == nil {
		t.Fatal("want error when Config.Capacity is unset")
	}
}

func TestAnalyticCapacityLatencyMonotone(t *testing.T) {
	c := analytic()
	prev := -1.0
	for rate := 0.0; rate < c.Capacity; rate += 25 {
		l := c.Latency(rate)
		if l < prev {
			t.Fatalf("latency decreased at rate %v: %v < %v", rate, l, prev)
		}
		prev = l
	}
	if sat := c.Latency(c.Capacity * 2); sat < 1 {
		t.Errorf("saturated latency %v should be large", sat)
	}
}

func TestAnalyticCapacityServersNeeded(t *testing.T) {
	c := analytic()
	n1 := c.ServersNeeded(100, 0.1, 0.2, 1)
	n2 := c.ServersNeeded(10_000, 0.1, 0.2, 1)
	if n1 < 1 {
		t.Fatalf("ServersNeeded(100) = %d", n1)
	}
	if n2 <= n1 {
		t.Errorf("100x load needs %d servers vs %d — not increasing", n2, n1)
	}
	// A tighter SLA can never need fewer servers.
	loose := c.ServersNeeded(10_000, 1.0, 0.2, 1)
	tight := c.ServersNeeded(10_000, 0.01, 0.2, 1)
	if tight < loose {
		t.Errorf("tighter SLA needs %d < %d servers", tight, loose)
	}
}

// TestFittedModelSizesLikeItsCurve: a CapacityModel fitted on samples
// of the analytic curve sizes within a server of the curve itself.
func TestFittedModelSizesLikeItsCurve(t *testing.T) {
	c := analytic()
	var model mlmodel.CapacityModel
	for rate := 25.0; rate < 0.95*c.Capacity; rate += 25 {
		model.Observe(rate, c.Latency(rate))
	}
	fitted, ok := model.Curve()
	if !ok {
		t.Fatal("model did not fit the analytic curve")
	}
	for _, total := range []float64{1_000, 5_000, 10_000} {
		want := c.ServersNeeded(total, 0.1, sizingHeadroom, 1)
		got := fitted.ServersNeeded(total, 0.1, sizingHeadroom, 1)
		if d := got - want; d < -1 || d > 1 {
			t.Errorf("at %v req/s the fitted model sizes %d servers, the curve it was fitted on %d", total, got, want)
		}
	}
}

// TestSLABelowIdleLatencySizesLikeTheFittedModel: an SLA the idle
// latency already misses has no usable rate on any curve, analytic or
// fitted, so sizing returns the caller's fallback and every accepted
// query misses the SLA.
func TestSLABelowIdleLatencySizesLikeTheFittedModel(t *testing.T) {
	c := mlmodel.Curve{Capacity: 1000, Base: 0.050, K: 0.030}
	if n := c.ServersNeeded(10000, 0.020, 0.2, 1); n != 1 {
		t.Fatalf("ServersNeeded = %d, want the fallback 1", n)
	}
	var model mlmodel.CapacityModel
	for rate := 25.0; rate < 950; rate += 25 {
		model.Observe(rate, c.Latency(rate))
	}
	fitted, ok := model.Curve()
	if !ok {
		t.Fatal("model did not fit the curve")
	}
	if n := fitted.ServersNeeded(10000, 0.020, 0.2, 1); n != 1 {
		t.Fatalf("fitted ServersNeeded = %d, want the fallback 1", n)
	}

	s, results, out := compileSocial(t)
	rep, err := Advise(s, results, nil, out, socialWorkload(), Config{Capacity: c, SLALatency: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cluster.Servers != 1 {
		t.Errorf("Servers = %d, want the fallback 1", rep.Cluster.Servers)
	}
	for _, q := range rep.Queries {
		if q.Accepted && q.MeetsSLA {
			t.Errorf("%s meets a 20ms SLA at %v", q.Query, q.PredictedLatency)
		}
	}
}

func TestServersNeededMonotoneInLoadQuick(t *testing.T) {
	c := analytic()
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)
		return c.ServersNeeded(lo, 0.1, 0.2, 1) <= c.ServersNeeded(hi, 0.1, 0.2, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDowntimeCostCurveShape(t *testing.T) {
	curve := DowntimeCostCurve(CurveInput{
		Servers:      10,
		StorageBytes: 100 << 30,
		MaxReplicas:  5,
		NodeMTBF:     30 * 24 * time.Hour,
		NodeMTTR:     10 * time.Minute,
	})
	if len(curve) != 5 {
		t.Fatalf("want 5 points, got %d", len(curve))
	}
	for i, p := range curve {
		if p.Replicas != i+1 {
			t.Errorf("point %d: replicas %d", i, p.Replicas)
		}
		if p.Availability <= 0 || p.Availability > 1 {
			t.Errorf("availability %v out of range", p.Availability)
		}
		if i > 0 {
			prev := curve[i-1]
			if p.Availability < prev.Availability {
				t.Errorf("availability fell adding a replica: %v -> %v", prev.Availability, p.Availability)
			}
			if p.Durability < prev.Durability {
				t.Errorf("durability fell adding a replica: %v -> %v", prev.Durability, p.Durability)
			}
			if p.MonthlyUSD <= prev.MonthlyUSD {
				t.Errorf("cost did not rise adding a replica: %v -> %v", prev.MonthlyUSD, p.MonthlyUSD)
			}
			if p.DowntimeMinutesPerMonth > prev.DowntimeMinutesPerMonth {
				t.Errorf("downtime rose adding a replica")
			}
		}
	}
}

func TestDowntimeCurveMatchesSteadyState(t *testing.T) {
	mtbf, mttr := 30*24*time.Hour, 10*time.Minute
	curve := DowntimeCostCurve(CurveInput{Servers: 1, MaxReplicas: 1, NodeMTBF: mtbf, NodeMTTR: mttr})
	u := mttr.Seconds() / (mtbf.Seconds() + mttr.Seconds())
	want := 1 - u
	if got := curve[0].Availability; math.Abs(got-want) > 1e-12 {
		t.Errorf("1-replica availability = %v, want %v", got, want)
	}
}

func TestPickReplicas(t *testing.T) {
	curve := DowntimeCostCurve(CurveInput{
		Servers: 4, MaxReplicas: 5,
		NodeMTBF: 30 * 24 * time.Hour, NodeMTTR: 10 * time.Minute,
	})
	p, ok := PickReplicas(curve, 0.99999, 0)
	if !ok {
		t.Fatal("five nines should be reachable within 5 replicas at these rates")
	}
	if p.Replicas < 2 {
		t.Errorf("five nines with one replica is implausible at MTTR=10m (got %d)", p.Replicas)
	}
	// Cheapest point is returned: the previous replica count must miss.
	for _, q := range curve {
		if q.Replicas == p.Replicas-1 && q.Availability >= 0.99999 {
			t.Errorf("replicas=%d already met the target; PickReplicas not cheapest", q.Replicas)
		}
	}
	// Restricting the curve to two replicas makes ten nines
	// unreachable (1 - u² ≈ 0.99999995 at these failure rates).
	if _, ok := PickReplicas(curve[:2], 0.9999999999, 0); ok {
		t.Error("ten nines must be infeasible with two replicas")
	}
}

func TestPickReplicasDurabilityTarget(t *testing.T) {
	curve := DowntimeCostCurve(CurveInput{
		Servers: 4, MaxReplicas: 5,
		NodeMTBF: 30 * 24 * time.Hour, NodeMTTR: 10 * time.Minute,
	})
	p, ok := PickReplicas(curve, 0, 0.99999)
	if !ok {
		t.Fatal("99.999% durability should be reachable")
	}
	if p.Durability < 0.99999 {
		t.Errorf("picked point misses durability: %v", p.Durability)
	}
}

func TestFormatReport(t *testing.T) {
	s, results, out := compileSocial(t)
	rep, err := Advise(s, results, nil, out, socialWorkload(), Config{Capacity: analytic()})
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	text := rep.Format()
	for _, want := range []string{
		"QUERY TEMPLATES", "MATERIALIZED STRUCTURES", "CLUSTER SIZING",
		"EXPECTED DOWNTIME vs COST", "getProfile", "friendBirthdays",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 << 20, "3.00MiB"},
		{5 << 30, "5.00GiB"},
		{2 << 40, "2.00TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestClusterAdviceScalesWithLoadQuick(t *testing.T) {
	s, results, out := compileSocial(t)
	f := func(mult uint8) bool {
		m := float64(mult%50) + 1
		w := socialWorkload()
		for k := range w.QueryRates {
			w.QueryRates[k] *= m
		}
		rep, err := Advise(s, results, nil, out, w, Config{Capacity: analytic()})
		if err != nil {
			return false
		}
		base, err := Advise(s, results, nil, out, socialWorkload(), Config{Capacity: analytic()})
		if err != nil {
			return false
		}
		return rep.Cluster.Servers >= base.Cluster.Servers == (m >= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAdviseReplicationMultipliesCost(t *testing.T) {
	s, results, out := compileSocial(t)
	r1, err := Advise(s, results, nil, out, socialWorkload(),
		Config{Capacity: analytic(), ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Advise(s, results, nil, out, socialWorkload(),
		Config{Capacity: analytic(), ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cluster.TotalNodes != 3*r1.Cluster.TotalNodes {
		t.Errorf("nodes: rf3 %d vs rf1 %d", r3.Cluster.TotalNodes, r1.Cluster.TotalNodes)
	}
	if r3.Cluster.ReplicatedBytes != 3*r1.Cluster.ReplicatedBytes {
		t.Errorf("storage: rf3 %d vs rf1 %d", r3.Cluster.ReplicatedBytes, r1.Cluster.ReplicatedBytes)
	}
	if r3.Cluster.MonthlyTotalUSD <= r1.Cluster.MonthlyTotalUSD {
		t.Error("replication should cost more")
	}
}
