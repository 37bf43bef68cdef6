// bench_test.go regenerates every figure and table of the paper as Go
// benchmarks. Each BenchmarkE<n> corresponds to one row of the
// cmd/scads-bench/README.md index; key measured quantities are emitted
// through b.ReportMetric so `go test -bench` output records the
// reproduction.
//
//	Figure 1  -> BenchmarkE1AnimotoScaleUp
//	Figure 2  -> BenchmarkE2FeedbackLoop (+ reactive ablation)
//	Figure 3  -> BenchmarkE3QueryCompile
//	Figure 4  -> BenchmarkE4a..E4e (one per consistency axis)
//	§1.1/§2.1 -> BenchmarkE5ScaleIndependence
//	§2.3      -> BenchmarkE6UpdateBound
//	§2.1      -> BenchmarkE7ScaleDownEconomics
//	§3.3.2    -> BenchmarkE8DeadlineQueue (+ FIFO ablation)
//	§2.2/§3.3.1 -> BenchmarkE9Advisor (cost & downtime-vs-cost guidance)
//	§3.3.1    -> BenchmarkE10PartitionContention (priority arbitration)
package scads

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/analyzer"
	"scads/internal/clock"
	"scads/internal/cloudsim"
	"scads/internal/consistency"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/replication"
	"scads/internal/sim"
	"scads/internal/storage"
	"scads/internal/wal"
	"scads/internal/workload"
)

func paperSLA() consistency.PerformanceSLA {
	return consistency.PerformanceSLA{Percentile: 99.9, LatencyBound: 100 * time.Millisecond, SuccessRate: 99.9}
}

func paperService() cloudsim.ServiceModel {
	return cloudsim.ServiceModel{CapacityPerServer: 1000, Base: 5 * time.Millisecond, K: 30 * time.Millisecond}
}

// BenchmarkE1AnimotoScaleUp reproduces Figure 1: a viral ramp that
// needs ~50 servers on day 0 and 3400+ on day 3, with the model-driven
// director keeping the SLA while scaling 68x.
func BenchmarkE1AnimotoScaleUp(b *testing.B) {
	svc := paperService()
	trace := workload.AnimotoTrace(t0, svc.CapacityPerServer)
	var last sim.Result
	for i := 0; i < b.N; i++ {
		last = sim.Run(sim.Config{
			Start:          t0,
			Duration:       72 * time.Hour,
			Tick:           time.Minute,
			Trace:          trace,
			Service:        svc,
			SLA:            paperSLA(),
			Cloud:          cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10},
			Mode:           sim.ModeModelDriven,
			InitialServers: 50,
			Warmup:         true,
		})
	}
	b.ReportMetric(float64(last.PeakServers), "peak-servers")
	b.ReportMetric(float64(last.FinalServers), "final-servers")
	b.ReportMetric(100*last.ViolationRate(), "violation-%")
	b.ReportMetric(last.MachineHours, "machine-hours")
}

// BenchmarkE2FeedbackLoop measures the Figure 2 loop's reaction to a
// 4x load step: the model-driven director versus the reactive
// baseline (the ablation of the director described in ARCHITECTURE.md).
func BenchmarkE2FeedbackLoop(b *testing.B) {
	svc := paperService()
	stepAt := t0.Add(2 * time.Hour)
	trace := workload.Spike{
		Baseline: workload.Constant(2000), At: stepAt,
		Rise: time.Minute, Duration: 3 * time.Hour, Magnitude: 4,
	}
	run := func(mode sim.Mode) sim.Result {
		return sim.Run(sim.Config{
			Start: t0, Duration: 6 * time.Hour, Tick: time.Minute,
			Trace: trace, Service: svc, SLA: paperSLA(),
			Cloud:          cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10},
			Mode:           mode,
			InitialServers: 4,
			Warmup:         true,
		})
	}
	var md, re sim.Result
	for i := 0; i < b.N; i++ {
		md = run(sim.ModeModelDriven)
		re = run(sim.ModeReactive)
	}
	mdStats := sim.MeasureReaction(md, stepAt)
	reStats := sim.MeasureReaction(re, stepAt)
	b.ReportMetric(100*md.ViolationRate(), "model-violation-%")
	b.ReportMetric(100*re.ViolationRate(), "reactive-violation-%")
	b.ReportMetric(mdStats.Recovery.Minutes(), "model-recovery-min")
	b.ReportMetric(reStats.Recovery.Minutes(), "reactive-recovery-min")
}

// BenchmarkE3QueryCompile reproduces Figure 3: compiling the paper's
// social-network queries into the index-maintenance table.
func BenchmarkE3QueryCompile(b *testing.B) {
	ddl := `
ENTITY profiles (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    since int,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY friends
SELECT * FROM friendships WHERE f1 = ?user ORDER BY since DESC LIMIT 5000

QUERY friendsOfFriends
SELECT b.* FROM friendships a JOIN friendships b ON a.f2 = b.f1
WHERE a.f1 = ?user LIMIT 1000

QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`
	var out *planner.Output
	for i := 0; i < b.N; i++ {
		s, err := query.Parse(ddl)
		if err != nil {
			b.Fatal(err)
		}
		results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
		if err != nil {
			b.Fatal(err)
		}
		out, err = planner.Compile(s, results)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out.Maintenance)), "maintenance-rows")
	b.ReportMetric(float64(len(out.Indexes)), "indexes")
}

// BenchmarkE4aPerformanceSLA exercises Figure 4 row 1: sustained load
// against a live local cluster; reports the measured SLA-percentile
// latency and success rate.
func BenchmarkE4aPerformanceSLA(b *testing.B) {
	lc, err := NewLocalCluster(4, Config{ReplicationFactor: 2, SLA: paperSLA()})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		lc.Insert("users", Row{"id": fmt.Sprintf("user%05d", i), "name": "U", "birthday": i%365 + 1})
	}
	lc.FlushAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lc.Get("users", Row{"id": fmt.Sprintf("user%05d", i%1000)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	iv := lc.Monitor().Roll()
	b.ReportMetric(float64(iv.Latency.Microseconds()), "p99.9-us")
	b.ReportMetric(iv.SuccessRate, "success-%")
}

// BenchmarkE4bWriteConsistency exercises Figure 4 row 2: the same
// contended counter under last-write-wins (loses updates),
// serializable (exact), and merge (converges to the union).
func BenchmarkE4bWriteConsistency(b *testing.B) {
	var lostLWW, lostSer, lostMerge float64
	for i := 0; i < b.N; i++ {
		lostLWW = contendedCounterLoss(b, "last-write-wins")
		lostSer = contendedCounterLoss(b, "serializable")
		lostMerge = mergeUnionLoss(b)
	}
	b.ReportMetric(lostLWW, "lww-lost-updates")
	b.ReportMetric(lostSer, "serializable-lost-updates")
	b.ReportMetric(lostMerge, "merge-lost-entries")
}

// mergeUnionLoss has concurrent writers each union-appending their own
// wall post; with write: merge(union) every post must survive.
func mergeUnionLoss(b *testing.B) float64 {
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		b.Fatal(err)
	}
	if err := lc.ApplyConsistency(`namespace users { write: merge(union); }`); err != nil {
		b.Fatal(err)
	}
	const workers = 32
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			lc.Insert("users", Row{"id": "wall", "name": fmt.Sprintf("post-%02d", w), "birthday": 1})
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	cur, _, err := lc.Get("users", Row{"id": "wall"})
	if err != nil || cur == nil {
		b.Fatal("wall missing")
	}
	missing := 0
	posts := cur["name"].(string)
	for w := 0; w < workers; w++ {
		if !strings.Contains(posts, fmt.Sprintf("post-%02d", w)) {
			missing++
		}
	}
	return float64(missing)
}

func contendedCounterLoss(b *testing.B, mode string) float64 {
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		b.Fatal(err)
	}
	if err := lc.ApplyConsistency(fmt.Sprintf("namespace users { write: %s; }", mode)); err != nil {
		b.Fatal(err)
	}
	const workers, iters = 8, 50
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < iters; i++ {
				if mode == "serializable" {
					lc.UpdateFunc("users", Row{"id": "ctr"}, func(cur Row) (Row, error) {
						n := int64(0)
						if cur != nil {
							n = cur["birthday"].(int64)
						}
						return Row{"id": "ctr", "birthday": n + 1}, nil
					})
				} else {
					// Non-atomic read-modify-write: the LWW hazard. The
					// yield models app-server think time between a web
					// request's read and its write — the window in which
					// concurrent requests race.
					cur, _, _ := lc.Get("users", Row{"id": "ctr"})
					n := int64(0)
					if cur != nil {
						n = cur["birthday"].(int64)
					}
					runtime.Gosched()
					lc.Insert("users", Row{"id": "ctr", "birthday": n + 1})
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	cur, _, _ := lc.Get("users", Row{"id": "ctr"})
	got := int64(0)
	if cur != nil {
		got = cur["birthday"].(int64)
	}
	return float64(workers*iters) - float64(got)
}

// BenchmarkE4cStalenessBound exercises Figure 4 row 3: with the pump
// draining at a fixed budget, the tracker's observed maximum staleness
// stays within the declared bound whenever drain capacity matches the
// write rate.
func BenchmarkE4cStalenessBound(b *testing.B) {
	var worst time.Duration
	var violations int64
	for i := 0; i < b.N; i++ {
		vc := clock.NewVirtual(t0)
		q := replication.NewQueue(replication.ByDeadline)
		pump := replication.NewPump(q, func(ns, node string, recs []record.Record) error {
			return nil
		}, vc)
		worst = 0
		const bound = 10 * time.Second
		ver := uint64(0)
		for tick := 0; tick < 300; tick++ { // 5 minutes, 1s ticks
			if tick < 120 {
				for w := 0; w < 50; w++ { // 50 writes/s burst for 2 min
					ver++
					pump.Enqueue("ns", record.Record{Key: []byte{byte(w)}, Version: ver},
						[]string{"replica"}, bound)
				}
			}
			// Probe before draining so accumulated backlog is visible.
			if st := pump.Tracker().Staleness("ns", "replica"); st > worst {
				worst = st
			}
			pump.Drain(48) // slightly under-provisioned during the burst
			vc.Advance(time.Second)
		}
		violations = pump.Stats().Violations
	}
	b.ReportMetric(worst.Seconds(), "max-staleness-s")
	b.ReportMetric(10, "bound-s")
	b.ReportMetric(float64(violations), "bound-violations")
}

// BenchmarkE4dSessionGuarantees exercises Figure 4 row 4: fraction of
// reads that observe the session's own write immediately after writing,
// with and without read-your-writes, while replication lags.
func BenchmarkE4dSessionGuarantees(b *testing.B) {
	var withSess, without float64
	for i := 0; i < b.N; i++ {
		withSess = ownWriteVisibility(b, true)
		without = ownWriteVisibility(b, false)
	}
	b.ReportMetric(100*withSess, "with-session-%")
	b.ReportMetric(100*without, "without-session-%")
}

func ownWriteVisibility(b *testing.B, useSession bool) float64 {
	lc, err := NewLocalCluster(2, Config{ReplicationFactor: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		b.Fatal(err)
	}
	lc.ApplyConsistency(`namespace users { session: read-your-writes; }`)

	const trials = 200
	seen := 0
	for i := 0; i < trials; i++ {
		id := fmt.Sprintf("u%04d", i)
		r := Row{"id": id, "name": "N", "birthday": 1}
		if useSession {
			sess := lc.NewSession("users")
			lc.InsertSession("users", r, sess)
			if _, found, _ := lc.GetSession("users", Row{"id": id}, sess); found {
				seen++
			}
		} else {
			lc.Insert("users", r)
			// Replication to the secondary has not been drained;
			// round-robin reads can hit the stale replica.
			if _, found, _ := lc.Get("users", Row{"id": id}); found {
				seen++
			}
		}
	}
	return float64(seen) / trials
}

// BenchmarkE4eDurability exercises Figure 4 row 5: replicas required
// for durability targets under a node-failure model, analytic vs Monte
// Carlo.
func BenchmarkE4eDurability(b *testing.B) {
	const pFail = 0.01
	var r3 int
	var mc float64
	for i := 0; i < b.N; i++ {
		var err error
		r3, err = consistency.RequiredReplicas(pFail, 0.99999)
		if err != nil {
			b.Fatal(err)
		}
		mc = consistency.MonteCarloSurvival(pFail, r3, 100000, 7)
	}
	b.ReportMetric(float64(r3), "replicas-for-5-nines")
	b.ReportMetric(mc, "mc-survival")
	b.ReportMetric(consistency.SurvivalProbability(pFail, r3), "analytic-survival")
}

// BenchmarkE5ScaleIndependence verifies §1.1's defining property: the
// birthday query's latency does not grow with the user count. The
// probe user's data is identical at every scale; only the total data
// volume grows.
func BenchmarkE5ScaleIndependence(b *testing.B) {
	for _, users := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			lc := buildScaledCluster(b, users)
			defer lc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "probe"})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 20 {
					b.Fatalf("probe rows = %d", len(rows))
				}
			}
		})
	}
}

func buildScaledCluster(b *testing.B, users int) *LocalCluster {
	b.Helper()
	lc, err := NewLocalCluster(4, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := lc.DefineSchema(socialDDL); err != nil {
		b.Fatal(err)
	}
	// Background population, written straight through the public API.
	for i := 0; i < users; i++ {
		lc.Insert("users", Row{"id": fmt.Sprintf("user%07d", i), "name": "U", "birthday": i%365 + 1})
		if i%1000 == 999 {
			lc.FlushAll()
		}
	}
	// The probe user: exactly 20 friends at every scale.
	lc.Insert("users", Row{"id": "probe", "name": "Probe", "birthday": 100})
	for i := 0; i < 20; i++ {
		lc.Insert("friendships", Row{"f1": "probe", "f2": fmt.Sprintf("user%07d", i)})
	}
	if err := lc.FlushAll(); err != nil {
		b.Fatal(err)
	}
	return lc
}

// BenchmarkE6UpdateBound exercises §2.3: the Facebook-style bounded
// schema is accepted, the Twitter-style unbounded one rejected, and
// the decision is made entirely at compile time.
func BenchmarkE6UpdateBound(b *testing.B) {
	facebook := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY friendships ( f1 string, f2 string, PRIMARY KEY (f1, f2), CARDINALITY f1 5000, CARDINALITY f2 5000 )
QUERY q SELECT u.* FROM friendships f JOIN users u ON f.f2 = u.id WHERE f.f1 = ?user LIMIT 100
`
	twitter := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY follows ( follower string, followee string, PRIMARY KEY (follower, followee) )
QUERY q SELECT u.* FROM follows f JOIN users u ON f.follower = u.id WHERE f.followee = ?user LIMIT 100
`
	accepted, rejected := 0, 0
	for i := 0; i < b.N; i++ {
		sF := query.MustParse(facebook)
		if _, err := analyzer.Analyze(sF, analyzer.Config{}); err == nil {
			accepted++
		}
		sT := query.MustParse(twitter)
		if _, err := analyzer.Analyze(sT, analyzer.Config{}); err != nil {
			rejected++
		}
	}
	if accepted != b.N || rejected != b.N {
		b.Fatalf("accepted=%d rejected=%d of %d", accepted, rejected, b.N)
	}
	b.ReportMetric(1, "facebook-accepted")
	b.ReportMetric(1, "twitter-rejected")
}

// BenchmarkE7ScaleDownEconomics exercises §2.1's cost claim: over a
// diurnal day, the elastic cluster matches SLA compliance at a
// fraction of the statically peak-provisioned cost.
func BenchmarkE7ScaleDownEconomics(b *testing.B) {
	svc := paperService()
	trace := workload.Diurnal{Base: 3000, Amplitude: 2500, PeakHour: 14}
	common := sim.Config{
		Start: t0, Duration: 24 * time.Hour, Tick: time.Minute,
		Trace: trace, Service: svc, SLA: paperSLA(),
		Cloud:  cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10, BillingGranularity: time.Hour},
		Warmup: true,
	}
	var elastic, static sim.Result
	for i := 0; i < b.N; i++ {
		e := common
		e.Mode = sim.ModeModelDriven
		elastic = sim.Run(e)

		s := common
		s.Mode = sim.ModeStatic
		s.StaticServers = sim.RequiredServers(svc, paperSLA().LatencyBound, 5500)
		static = sim.Run(s)
	}
	b.ReportMetric(elastic.CostUSD, "elastic-$")
	b.ReportMetric(static.CostUSD, "static-peak-$")
	b.ReportMetric(100*elastic.ViolationRate(), "elastic-violation-%")
	b.ReportMetric(100*static.ViolationRate(), "static-violation-%")
	b.ReportMetric(100*(1-elastic.CostUSD/static.CostUSD), "savings-%")
}

// BenchmarkE8DeadlineQueue exercises §3.3.2: with constrained
// propagation bandwidth, the deadline queue protects tight staleness
// bounds while FIFO violates them — the ablation for design decision
// #1.
func BenchmarkE8DeadlineQueue(b *testing.B) {
	var dl, ff sim.E8Result
	for i := 0; i < b.N; i++ {
		dl = sim.RunE8(replication.ByDeadline, t0)
		ff = sim.RunE8(replication.FIFO, t0)
	}
	b.ReportMetric(float64(dl.TightViolations), "deadline-tight-violations")
	b.ReportMetric(float64(ff.TightViolations), "fifo-tight-violations")
	b.ReportMetric(float64(dl.LooseViolations), "deadline-loose-violations")
	b.ReportMetric(float64(ff.LooseViolations), "fifo-loose-violations")
}

// BenchmarkE9Advisor regenerates the §2.2/§3.3.1 guidance numbers: the
// advisor's pre-deployment prediction of index storage, write
// amplification, cluster sizing and the downtime-vs-cost curve for the
// social-network schema at one million users.
func BenchmarkE9Advisor(b *testing.B) {
	w := AdviceWorkload{
		QueryRates: map[string]float64{
			"findUser": 4000, "friends": 1500, "friendsWithUpcomingBirthdays": 1000,
		},
		UpdateRates: map[string]float64{"users": 80, "friendships": 40},
		TableRows:   map[string]int{"users": 1_000_000, "friendships": 20_000_000},
	}
	cfg := AdviceConfig{
		Capacity: AnalyticCapacity{
			PerServer: 1000, Base: 5 * time.Millisecond, K: 30 * time.Millisecond,
		},
		SLALatency:        100 * time.Millisecond,
		ReplicationFactor: 2,
	}
	var rep *AdviceReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = AdviseDDL(socialDDL, analyzer.Config{}, w, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Cluster.Servers), "servers")
	b.ReportMetric(rep.Cluster.WriteAmplification, "write-amplification-x")
	b.ReportMetric(float64(rep.Cluster.StorageBytes)/(1<<30), "storage-GiB")
	b.ReportMetric(rep.Cluster.MonthlyTotalUSD, "monthly-$")
	b.ReportMetric(rep.Curve[1].DowntimeMinutesPerMonth, "rf2-downtime-min/mo")
}

// BenchmarkE10PartitionContention reproduces §3.3.1's datacenter
// disconnect: with the replication link to the secondary severed and
// the primary unreachable, availability-first specs keep serving
// (stale) answers while read-consistency-first specs fail reads; both
// orders note the contention for the director.
func BenchmarkE10PartitionContention(b *testing.B) {
	run := func(priority string) (served, failed int64, noted ContentionStats) {
		vc := clock.NewVirtual(t0)
		lc, err := NewLocalCluster(2, Config{Clock: vc, ReplicationFactor: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer lc.Close()
		if err := lc.DefineSchema(socialDDL); err != nil {
			b.Fatal(err)
		}
		if err := lc.ApplyConsistency(fmt.Sprintf(
			"namespace users { staleness: 5s; priority: %s; }", priority)); err != nil {
			b.Fatal(err)
		}
		m, _ := lc.Router().Map(planner.TableNamespace("users"))
		lc.Insert("users", Row{"id": "a", "name": "v1", "birthday": 1})
		lc.Pump().Drain(100)
		lc.PartitionReplica(m.Ranges()[0].Replicas[1])
		lc.Insert("users", Row{"id": "a", "name": "v2", "birthday": 1})
		lc.Pump().Drain(100)
		vc.Advance(10 * time.Second)
		lc.CrashNode(m.Ranges()[0].Replicas[0])
		for i := 0; i < 100; i++ {
			if _, _, err := lc.Get("users", Row{"id": "a"}); err != nil {
				failed++
			} else {
				served++
			}
		}
		return served, failed, lc.Contention()
	}
	var availServed, availFailed, consServed, consFailed int64
	var availNoted, consNoted ContentionStats
	for i := 0; i < b.N; i++ {
		availServed, availFailed, availNoted = run("availability > read-consistency")
		consServed, consFailed, consNoted = run("read-consistency > availability")
	}
	b.ReportMetric(float64(availServed), "avail-first-served")
	b.ReportMetric(float64(availFailed), "avail-first-failed")
	b.ReportMetric(float64(consServed), "consistency-first-served")
	b.ReportMetric(float64(consFailed), "consistency-first-failed")
	b.ReportMetric(float64(availNoted.StaleServed), "avail-first-noted-stale")
	b.ReportMetric(float64(consNoted.ReadsFailed), "consistency-first-noted-failures")
}

// BenchmarkE11HotRangeRebalance measures the workload-driven
// repartitioning loop: a skewed window is tracked, the hot range is
// split at the observed median key, and ranges move until primaries
// spread — §3.3.1's "current workload information ... used to
// automatically configure ... partitioning".
func BenchmarkE11HotRangeRebalance(b *testing.B) {
	var ranges, primaries, actions int
	for i := 0; i < b.N; i++ {
		vc := clock.NewVirtual(t0)
		lc, err := NewLocalCluster(4, Config{Clock: vc})
		if err != nil {
			b.Fatal(err)
		}
		if err := lc.DefineSchema(socialDDL); err != nil {
			b.Fatal(err)
		}
		for u := 0; u < 200; u++ {
			lc.Insert("users", Row{
				"id": fmt.Sprintf("user%04d", u), "name": "U", "birthday": 1,
			})
		}
		actions = 0
		for round := 0; round < 3; round++ {
			for k := 0; k < 400; k++ {
				for j := 0; j < 4; j++ {
					lc.Get("users", Row{"id": fmt.Sprintf("user%04d", j*5)})
				}
				lc.Get("users", Row{"id": fmt.Sprintf("user%04d", k%200)})
			}
			plan, err := lc.Rebalance(BalanceConfig{})
			if err != nil {
				b.Fatal(err)
			}
			actions += len(plan)
		}
		m, _ := lc.Router().Map(planner.TableNamespace("users"))
		ranges = m.Len()
		prim := map[string]bool{}
		for _, rng := range m.Ranges() {
			prim[rng.Replicas[0]] = true
		}
		primaries = len(prim)
		lc.Close()
	}
	b.ReportMetric(float64(ranges), "final-ranges")
	b.ReportMetric(float64(primaries), "primary-nodes")
	b.ReportMetric(float64(actions), "plan-actions")

	// Ablation: with splitting disabled the single-range hotspot has
	// nowhere to go — moves alone cannot spread one range's load, so
	// every range keeps its original primary.
	vc := clock.NewVirtual(t0)
	lc, err := NewLocalCluster(4, Config{Clock: vc})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 200; u++ {
		lc.Insert("users", Row{"id": fmt.Sprintf("user%04d", u), "name": "U", "birthday": 1})
	}
	for round := 0; round < 3; round++ {
		for k := 0; k < 400; k++ {
			lc.Get("users", Row{"id": fmt.Sprintf("user%04d", k%20)})
		}
		if _, err := lc.Rebalance(BalanceConfig{SplitFraction: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	m, _ := lc.Router().Map(planner.TableNamespace("users"))
	prim := map[string]bool{}
	for _, rng := range m.Ranges() {
		prim[rng.Replicas[0]] = true
	}
	b.ReportMetric(float64(m.Len()), "noSplit-final-ranges")
	b.ReportMetric(float64(len(prim)), "noSplit-primary-nodes")
}

// --- batched write pipeline and read cache (this repo's scaling work,
// beyond the paper's figures) ---

// BenchmarkGroupCommitWAL is the acceptance benchmark for the batched
// group-commit write pipeline: concurrent durable writers through
// wal.AppendGroup (shared fsync per commit group) versus the unbatched
// baseline (one private fsync per append, Options.SyncEveryAppend).
// The batched path must win at >= 4 concurrent writers; fsyncs/op
// reports how much durability work each configuration actually paid.
func BenchmarkGroupCommitWAL(b *testing.B) {
	payload := strings.Repeat("x", 128)
	for _, writers := range []int{1, 4, 16} {
		for _, mode := range []string{"unbatched", "group-commit"} {
			b.Run(fmt.Sprintf("%s/writers=%d", mode, writers), func(b *testing.B) {
				var opts *wal.Options
				if mode == "unbatched" {
					opts = &wal.Options{SyncEveryAppend: true}
				}
				l, _, err := wal.Open(b.TempDir(), opts)
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							rec := record.Record{
								Key:     []byte(fmt.Sprintf("w%02d-%09d", w, i)),
								Value:   []byte(payload),
								Version: uint64(i),
							}
							var appendErr error
							if mode == "unbatched" {
								appendErr = l.Append(rec)
							} else {
								appendErr = l.AppendGroup(rec)
							}
							if appendErr != nil {
								b.Error(appendErr)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				st := l.Stats()
				b.ReportMetric(float64(st.Syncs)/float64(b.N), "fsyncs/op")
			})
		}
	}
}

// BenchmarkReadCache measures the sharded read cache on a namespace
// whose working set lives in SSTables: cached point gets skip the
// memtable/SSTable resolution entirely after the first touch.
func BenchmarkReadCache(b *testing.B) {
	const keys = 4096
	for _, mode := range []string{"uncached", "cached"} {
		b.Run(mode, func(b *testing.B) {
			cacheBytes := int64(0)
			if mode == "uncached" {
				cacheBytes = -1
			}
			e, err := storage.Open(storage.Options{Dir: b.TempDir(), NodeID: 1, CacheBytes: cacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ns, err := e.Namespace("users")
			if err != nil {
				b.Fatal(err)
			}
			val := []byte(strings.Repeat("v", 256))
			for i := 0; i < keys; i++ {
				if _, err := ns.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := ns.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := ns.Get([]byte(fmt.Sprintf("key-%06d", i%keys))); !ok || err != nil {
					b.Fatalf("get: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkInsertBatch compares row-at-a-time Insert against the
// batched coordinator path (InsertBatch), which groups records per
// primary node into multi-record applies.
func BenchmarkInsertBatch(b *testing.B) {
	const chunk = 100
	for _, mode := range []string{"loop-insert", "insert-batch"} {
		b.Run(mode, func(b *testing.B) {
			lc, err := NewLocalCluster(4, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()
			if err := lc.DefineSchema(socialDDL); err != nil {
				b.Fatal(err)
			}
			rows := make([]Row, chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range rows {
					rows[j] = Row{"id": fmt.Sprintf("u%09d-%02d", i, j), "name": "N", "birthday": 1}
				}
				if mode == "loop-insert" {
					for _, r := range rows {
						if err := lc.Insert("users", r); err != nil {
							b.Fatal(err)
						}
					}
				} else if err := lc.InsertBatch("users", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := lc.FlushAll(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
