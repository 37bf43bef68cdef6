package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"strings"
	"time"

	"scads"
	"scads/internal/analyzer"
	"scads/internal/clock"
	"scads/internal/cloudsim"
	"scads/internal/consistency"
	"scads/internal/director"
	"scads/internal/expgrid"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/replication"
	"scads/internal/sim"
	"scads/internal/workload"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func paperSLA() consistency.PerformanceSLA {
	return consistency.PerformanceSLA{Percentile: 99.9, LatencyBound: 100 * time.Millisecond, SuccessRate: 99.9}
}

func paperService() cloudsim.ServiceModel {
	return cloudsim.ServiceModel{CapacityPerServer: 1000, Base: 5 * time.Millisecond, K: 30 * time.Millisecond}
}

const socialDDL = `
ENTITY users (
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
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
QUERY friends
SELECT * FROM friendships WHERE f1 = ?user LIMIT 5000
QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`

// --- E1: Figure 1 ---

func runE1(expgrid.Params) (expgrid.Metrics, error) {
	svc := paperService()
	trace := workload.AnimotoTrace(t0, svc.CapacityPerServer)
	res := sim.Run(sim.Config{
		Start: t0, Duration: 72 * time.Hour, Tick: time.Minute,
		Trace: trace, Service: svc,
		Cloud:          cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10},
		InitialServers: 50,
		Director:       &director.Config{},
	})
	fmt.Println("servers over the three-day viral ramp (model-driven director):")
	fmt.Printf("%8s %14s %10s %10s\n", "hour", "load(req/s)", "servers", "sla")
	for i, tk := range res.Ticks {
		if i%(6*60) != 0 { // every 6 simulated hours
			continue
		}
		status := "ok"
		if !tk.Met {
			status = "VIOLATION"
		}
		fmt.Printf("%8.0f %14.0f %10d %10s\n", tk.T.Sub(t0).Hours(), tk.Rate, tk.Running, status)
	}
	last := res.Ticks[len(res.Ticks)-1]
	fmt.Printf("%8.0f %14.0f %10d\n", last.T.Sub(t0).Hours(), last.Rate, last.Running)
	fmt.Printf("\npaper (Figure 1): ~50 servers -> 3400+ servers in 3 days\n")
	fmt.Printf("measured:         %d servers -> %d servers (peak %d), SLA violations %.2f%%, %.0f machine-hours\n",
		res.Ticks[0].Running, res.FinalServers, res.PeakServers,
		100*res.ViolationRate(), res.MachineHours)
	return expgrid.Metrics{
		"peak_servers":  float64(res.PeakServers),
		"final_servers": float64(res.FinalServers),
		"violation_pct": 100 * res.ViolationRate(),
		"machine_hours": res.MachineHours,
	}, nil
}

// --- E2: Figure 2 ---

func runE2(expgrid.Params) (expgrid.Metrics, error) {
	svc := paperService()
	stepAt := t0.Add(2 * time.Hour)
	trace := workload.Spike{
		Baseline: workload.Constant(2000), At: stepAt,
		Rise: time.Minute, Duration: 3 * time.Hour, Magnitude: 4,
	}
	run := func(policy director.Policy) (sim.Result, sim.ReactionStats) {
		res := sim.Run(sim.Config{
			Start: t0, Duration: 6 * time.Hour, Tick: time.Minute,
			Trace: trace, Service: svc,
			Cloud:          cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10},
			InitialServers: 4,
			Director:       &director.Config{Policy: policy},
		})
		return res, sim.MeasureReaction(res, stepAt)
	}
	md, mdR := run(director.ModelDriven)
	re, reR := run(director.Reactive)

	fmt.Println("4x load step at hour 2; how the Figure 2 loop reacts:")
	fmt.Printf("%-22s %16s %16s %14s\n", "policy", "violations", "violation-rate", "recovery")
	rec := func(rs sim.ReactionStats) string {
		if !rs.EverViolated {
			return "never violated"
		}
		if !rs.Recovered {
			return "never recovered"
		}
		return rs.Recovery.String()
	}
	fmt.Printf("%-22s %16d %15.2f%% %14s\n", "model-driven (SCADS)", md.Violations, 100*md.ViolationRate(), rec(mdR))
	fmt.Printf("%-22s %16d %15.2f%% %14s\n", "reactive (ablation)", re.Violations, 100*re.ViolationRate(), rec(reR))
	fmt.Println("\nthe model-driven loop provisions at the forecast horizon (boot delay +")
	fmt.Println("2 ticks), so it absorbs the step with fewer violated intervals and")
	fmt.Println("recovers sooner than the reactive threshold rule.")
	return expgrid.Metrics{
		"model_violated_intervals":    float64(md.Violations),
		"reactive_violated_intervals": float64(re.Violations),
		"model_violation_pct":         100 * md.ViolationRate(),
		"reactive_violation_pct":      100 * re.ViolationRate(),
		"model_recovery_min":          mdR.Recovery.Minutes(),
		"reactive_recovery_min":       reR.Recovery.Minutes(),
	}, nil
}

// --- E3: Figure 3 ---

func runE3(expgrid.Params) (expgrid.Metrics, error) {
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
	s, err := query.Parse(ddl)
	must(err)
	results, err := analyzer.Analyze(s, analyzer.Config{MaxUpdateWork: 20000})
	must(err)
	out2, err := planner.Compile(s, results)
	must(err)

	fmt.Println("paper's Figure 3:")
	fmt.Println("  friend index            friendships   *")
	fmt.Println("  friends of friends idx  friend index  *")
	fmt.Println("  birthday index          profiles      birthday")
	fmt.Println("  birthday index          friendship    *")
	fmt.Println("\ncompiled maintenance table (this reproduction):")
	fmt.Print(indent(planner.FormatMaintenanceTable(out2.Maintenance), "  "))
	fmt.Println("\nnotes: idx_friends is the friend index; view_friendsOfFriends covers the")
	fmt.Println("paper's cascading friend-index trigger by triggering on both sides of the")
	fmt.Println("self-join directly; rev_friendships_f2 is the auxiliary reverse index the")
	fmt.Println("birthday view needs for bounded profile-change maintenance.")

	fmt.Println("\nper-query analysis (scale-independence proof objects):")
	fmt.Printf("  %-28s %-12s %10s %12s\n", "query", "shape", "fanout", "update-work")
	for _, name := range s.QueryOrder {
		r := results[name]
		fmt.Printf("  %-28s %-12s %10d %12d\n", name, r.Shape, r.Fanout, r.UpdateWork)
	}
	return expgrid.Metrics{
		"maintenance_rows": float64(len(out2.Maintenance)),
		"indexes":          float64(len(out2.Indexes)),
	}, nil
}

// --- E4a ---

func runE4a(expgrid.Params) (expgrid.Metrics, error) {
	lc, err := scads.NewLocalCluster(4, scads.Config{ReplicationFactor: 2, SLA: paperSLA()})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	for i := 0; i < 2000; i++ {
		must(lc.Insert("users", scads.Row{"id": fmt.Sprintf("user%05d", i), "name": "U", "birthday": i%365 + 1}))
	}
	must(lc.FlushAll())

	const ops = 20000
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, _, err := lc.Get("users", scads.Row{"id": fmt.Sprintf("user%05d", i%2000)}); err != nil {
			must(err)
		}
	}
	elapsed := time.Since(start)
	iv := lc.Monitor().Roll()
	fmt.Printf("SLA: %.1f%% of requests succeed in < %s\n", paperSLA().Percentile, paperSLA().LatencyBound)
	fmt.Printf("measured over %d point reads on a live 4-node cluster (RF=2):\n", ops)
	fmt.Printf("  throughput:        %.0f req/s\n", float64(ops)/elapsed.Seconds())
	fmt.Printf("  p99.9 latency:     %s   (bound: %s)\n", iv.Latency, paperSLA().LatencyBound)
	fmt.Printf("  success rate:      %.4f%% (floor: %.1f%%)\n", iv.SuccessRate, paperSLA().SuccessRate)
	met := "MET"
	if !iv.Met {
		met = "VIOLATED"
	}
	fmt.Printf("  SLA:               %s\n", met)
	return expgrid.Metrics{
		"sla_met":     b2f(iv.Met),
		"p999_us":     float64(iv.Latency.Microseconds()),
		"success_pct": iv.SuccessRate,
	}, nil
}

// --- E4b ---

func runE4b(expgrid.Params) (expgrid.Metrics, error) {
	fmt.Println("the same contended counter (8 writers x 50 increments) under each")
	fmt.Println("write-consistency mode, plus 32 concurrent wall posts under merge:")
	fmt.Printf("\n  %-22s %14s\n", "write mode", "lost updates")
	lww, ser, merge := counterLoss("last-write-wins"), counterLoss("serializable"), mergeLoss()
	fmt.Printf("  %-22s %14.0f\n", "last-write-wins", lww)
	fmt.Printf("  %-22s %14.0f\n", "serializable", ser)
	fmt.Printf("  %-22s %14.0f   (union of posts; lost posts)\n", "merge(union)", merge)
	fmt.Println("\nthe spectrum of §3.3.1: LWW silently drops concurrent increments,")
	fmt.Println("serializable recovers RDBMS behaviour, and merge converges without locks")
	fmt.Println("when the developer supplies a commutative resolution function.")
	return expgrid.Metrics{
		"lww_lost_updates":          lww,
		"serializable_lost_updates": ser,
		"merge_lost_entries":        merge,
	}, nil
}

func counterLoss(mode string) float64 {
	lc, err := scads.NewLocalCluster(2, scads.Config{})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	must(lc.ApplyConsistency(fmt.Sprintf("namespace users { write: %s; }", mode)))
	const workers, iters = 8, 50
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < iters; i++ {
				if mode == "serializable" {
					must(lc.UpdateFunc("users", scads.Row{"id": "ctr"}, func(cur scads.Row) (scads.Row, error) {
						n := int64(0)
						if cur != nil {
							n = cur["birthday"].(int64)
						}
						return scads.Row{"id": "ctr", "birthday": n + 1}, nil
					}))
				} else {
					cur, _, err := lc.Get("users", scads.Row{"id": "ctr"})
					must(err)
					n := int64(0)
					if cur != nil {
						n = cur["birthday"].(int64)
					}
					runtime.Gosched() // app think time between read and write
					must(lc.Insert("users", scads.Row{"id": "ctr", "birthday": n + 1}))
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	cur, _, err := lc.Get("users", scads.Row{"id": "ctr"})
	must(err)
	got := int64(0)
	if cur != nil {
		got = cur["birthday"].(int64)
	}
	return float64(workers*iters) - float64(got)
}

func mergeLoss() float64 {
	lc, err := scads.NewLocalCluster(2, scads.Config{})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	must(lc.ApplyConsistency(`namespace users { write: merge(union); }`))
	const workers = 32
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			must(lc.Insert("users", scads.Row{"id": "wall", "name": fmt.Sprintf("post-%02d", w), "birthday": 1}))
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	cur, _, err := lc.Get("users", scads.Row{"id": "wall"})
	must(err)
	missing := 0
	posts := ""
	if cur != nil {
		posts = cur["name"].(string)
	}
	for w := 0; w < workers; w++ {
		if !strings.Contains(posts, fmt.Sprintf("post-%02d", w)) {
			missing++
		}
	}
	return float64(missing)
}

// --- E4c ---

func runE4c(expgrid.Params) (expgrid.Metrics, error) {
	vc := clock.NewVirtual(t0)
	q := replication.NewQueue(replication.ByDeadline)
	pump := replication.NewPump(q, func(ns, node string, recs []record.Record) error { return nil }, vc)

	const bound = 10 * time.Second
	var worst time.Duration
	fmt.Printf("declared staleness bound: %s (\"stale data gone within 10 seconds\")\n", bound)
	fmt.Println("write burst 50/s for 120s, replication drains 48/s:")
	fmt.Printf("\n  %6s %10s %14s\n", "t(s)", "backlog", "staleness")
	ver := uint64(0)
	for tick := 0; tick < 300; tick++ {
		if tick < 120 {
			for w := 0; w < 50; w++ {
				ver++
				pump.Enqueue("profiles", record.Record{Key: []byte{byte(w)}, Version: ver},
					[]string{"replica"}, bound)
			}
		}
		st := pump.Tracker().Staleness("profiles", "replica")
		if st > worst {
			worst = st
		}
		if tick%20 == 0 {
			fmt.Printf("  %6d %10d %14s\n", tick, pump.Queue().Len(), st.Truncate(time.Millisecond))
		}
		pump.Drain(48)
		vc.Advance(time.Second)
	}
	stats := pump.Stats()
	fmt.Printf("\n  max observed staleness: %s (bound %s)\n", worst, bound)
	fmt.Printf("  deadline violations:    %d of %d deliveries\n", stats.Violations, stats.Delivered)
	fmt.Println("\nreads consult the staleness tracker: a replica whose pending backlog is")
	fmt.Println("older than the bound is skipped (or the read fails/stalls, per the")
	fmt.Println("namespace's declared priority order — see experiment e4d and the")
	fmt.Println("TestStalenessBoundArbitration integration test).")
	return expgrid.Metrics{
		"max_staleness_s":  worst.Seconds(),
		"bound_s":          bound.Seconds(),
		"bound_violations": float64(stats.Violations),
		"deliveries":       float64(stats.Delivered),
	}, nil
}

// --- E4d ---

func runE4d(expgrid.Params) (expgrid.Metrics, error) {
	frac := func(useSession bool) float64 {
		lc, err := scads.NewLocalCluster(2, scads.Config{ReplicationFactor: 2})
		must(err)
		defer lc.Close()
		must(lc.DefineSchema(socialDDL))
		must(lc.ApplyConsistency(`namespace users { session: read-your-writes; }`))
		const trials = 500
		seen := 0
		for i := 0; i < trials; i++ {
			id := fmt.Sprintf("u%04d", i)
			r := scads.Row{"id": id, "name": "N", "birthday": 1}
			if useSession {
				sess := lc.NewSession("users")
				lc.InsertSession("users", r, sess)
				if _, found, _ := lc.GetSession("users", scads.Row{"id": id}, sess); found {
					seen++
				}
			} else {
				lc.Insert("users", r)
				if _, found, _ := lc.Get("users", scads.Row{"id": id}); found {
					seen++
				}
			}
		}
		return 100 * float64(seen) / trials
	}
	fmt.Println("write, then immediately read, while replication to the second replica")
	fmt.Println("is still in flight (RF=2, reads rotate across replicas):")
	fmt.Printf("\n  %-28s %22s\n", "mode", "saw own write")
	without, with := frac(false), frac(true)
	fmt.Printf("  %-28s %21.1f%%\n", "no session", without)
	fmt.Printf("  %-28s %21.1f%%\n", "read-your-writes session", with)
	fmt.Println("\n\"I must read my own writes\" (Figure 4): the session floor forces the")
	fmt.Println("read to fail over from the stale replica to one that has the write.")
	return expgrid.Metrics{"with_session_pct": with, "without_session_pct": without}, nil
}

// --- E4e ---

func runE4e(expgrid.Params) (expgrid.Metrics, error) {
	fmt.Println("durability SLA: replicas required so committed writes persist, given the")
	fmt.Println("probability a node dies within one repair window (analytic + Monte Carlo):")
	fmt.Printf("\n  %10s %14s %10s %18s %16s\n", "p(fail)", "target", "replicas", "analytic-survival", "monte-carlo")
	var m expgrid.Metrics
	for _, pFail := range []float64{0.01, 0.05} {
		for _, target := range []float64{0.99, 0.999, 0.99999} {
			r, err := consistency.RequiredReplicas(pFail, target)
			must(err)
			an := consistency.SurvivalProbability(pFail, r)
			mc := consistency.MonteCarloSurvival(pFail, r, 400000, 7)
			fmt.Printf("  %10.2f %13.3f%% %10d %18.6f %16.6f\n", pFail, 100*target, r, an, mc)
			if pFail == 0.01 && target == 0.99999 {
				m = expgrid.Metrics{"replicas_for_5_nines": float64(r), "analytic_survival": an, "mc_survival": mc}
			}
		}
	}
	fmt.Println("\n\"for high volume but less-important data, such as old comments, relaxing")
	fmt.Println("this probability could save on replication costs\" (§3.3.1): dropping from")
	fmt.Println("five nines to two nines saves a replica at p=0.01.")
	return m, nil
}

// --- E5 ---

func runE5(expgrid.Params) (expgrid.Metrics, error) {
	fmt.Println("the birthday query against a probe user with exactly 20 friends, as the")
	fmt.Println("background population grows 100x (the §1.1 scale-independence claim):")
	fmt.Printf("\n  %12s %14s %16s %14s\n", "users", "median-us", "p99-us", "rows")
	m := expgrid.Metrics{}
	for _, users := range []int{1000, 10000, 100000} {
		med, p99, rows := e5Probe(users)
		fmt.Printf("  %12d %14.0f %16.0f %14d\n", users, med, p99, rows)
		m[fmt.Sprintf("rows_at_%d_users", users)] = float64(rows)
		m[fmt.Sprintf("median_us_at_%d_users", users)] = med
		m[fmt.Sprintf("p99_us_at_%d_users", users)] = p99
	}
	fmt.Println("\nresponse time is flat in the number of users: every execution is one")
	fmt.Println("bounded contiguous index scan regardless of total data volume.")
	return m, nil
}

func e5Probe(users int) (medianUS, p99US float64, rows int) {
	lc, err := scads.NewLocalCluster(4, scads.Config{})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	for i := 0; i < users; i++ {
		must(lc.Insert("users", scads.Row{"id": fmt.Sprintf("user%07d", i), "name": "U", "birthday": i%365 + 1}))
		if i%2000 == 1999 {
			must(lc.FlushAll())
		}
	}
	must(lc.Insert("users", scads.Row{"id": "probe", "name": "Probe", "birthday": 100}))
	for i := 0; i < 20; i++ {
		must(lc.Insert("friendships", scads.Row{"f1": "probe", "f2": fmt.Sprintf("user%07d", i)}))
	}
	must(lc.FlushAll())

	const trials = 2000
	lats := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		rs, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "probe"})
		must(err)
		lats = append(lats, float64(time.Since(start).Microseconds()))
		rows = len(rs)
	}
	sort.Float64s(lats)
	return lats[len(lats)/2], lats[len(lats)*99/100], rows
}

// --- E6 ---

func runE6(expgrid.Params) (expgrid.Metrics, error) {
	facebook := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY friendships ( f1 string, f2 string, PRIMARY KEY (f1, f2), CARDINALITY f1 5000, CARDINALITY f2 5000 )
QUERY friendsOf SELECT u.* FROM friendships f JOIN users u ON f.f2 = u.id WHERE f.f1 = ?user LIMIT 100
`
	twitter := `
ENTITY users ( id string PRIMARY KEY, name string )
ENTITY follows ( follower string, followee string, PRIMARY KEY (follower, followee) )
QUERY followersOf SELECT u.* FROM follows f JOIN users u ON f.follower = u.id WHERE f.followee = ?user LIMIT 100
`
	fmt.Println("\"the limit of 5,000 friends per user on Facebook [allows] interesting")
	fmt.Println("joins ... a system like Twitter would not map into our system without")
	fmt.Println("modification\" (§2.3). The analyzer decides at schema-definition time:")

	sF := query.MustParse(facebook)
	resF, errF := analyzer.Analyze(sF, analyzer.Config{})
	fmt.Printf("\n  Facebook-style schema (CARDINALITY 5000 declared):\n")
	if errF == nil {
		r := resF["friendsOf"]
		fmt.Printf("    ACCEPTED: shape=%s fanout=%d update-work=%d (O(K), K=10000)\n",
			r.Shape, r.Fanout, r.UpdateWork)
	} else {
		fmt.Printf("    unexpectedly rejected: %v\n", errF)
	}

	sT := query.MustParse(twitter)
	_, errT := analyzer.Analyze(sT, analyzer.Config{})
	fmt.Printf("\n  Twitter-style schema (unbounded followers):\n")
	if errT != nil {
		fmt.Printf("    REJECTED: %v\n", firstLine(errT.Error()))
	} else {
		fmt.Printf("    unexpectedly accepted\n")
	}
	return expgrid.Metrics{"facebook_accepted": b2f(errF == nil), "twitter_rejected": b2f(errT != nil)}, nil
}

// --- E7 ---

func runE7(expgrid.Params) (expgrid.Metrics, error) {
	svc := paperService()
	trace := workload.Diurnal{Base: 3000, Amplitude: 2500, PeakHour: 14}
	cfg := sim.Config{
		Start: t0, Duration: 24 * time.Hour, Tick: time.Minute,
		Trace: trace, Service: svc,
		Cloud:    cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10, BillingGranularity: time.Hour},
		Director: &director.Config{},
	}
	elastic := sim.Run(cfg)

	// The static baseline: no director, a fleet sized for the peak.
	cfg.Director = nil
	cfg.InitialServers = sim.RequiredServers(svc, 5500)
	static := sim.Run(cfg)

	fmt.Println("one diurnal day (peak 5500 req/s at 2pm, trough 500 req/s at 2am),")
	fmt.Println("$0.10 per machine-hour, hourly billing:")
	fmt.Printf("\n  %-24s %14s %12s %14s %12s\n", "provisioning", "machine-hours", "cost", "violations", "peak-servers")
	fmt.Printf("  %-24s %14.1f %11s$%.2f %13.2f%% %12d\n",
		"static (peak-sized)", static.MachineHours, "", static.CostUSD, 100*static.ViolationRate(), static.PeakServers)
	fmt.Printf("  %-24s %14.1f %11s$%.2f %13.2f%% %12d\n",
		"elastic (SCADS)", elastic.MachineHours, "", elastic.CostUSD, 100*elastic.ViolationRate(), elastic.PeakServers)
	fmt.Printf("\n  savings: %.1f%% of the static bill, at comparable SLA compliance —\n",
		100*(1-elastic.CostUSD/static.CostUSD))
	fmt.Println("  \"rapid scale-down is a new goal for massive storage systems, as there")
	fmt.Println("  is now an economic benefit to doing so\" (§1).")
	return expgrid.Metrics{
		"elastic_machine_hours": elastic.MachineHours,
		"static_machine_hours":  static.MachineHours,
		"elastic_usd":           elastic.CostUSD,
		"static_peak_usd":       static.CostUSD,
		"elastic_violation_pct": 100 * elastic.ViolationRate(),
		"static_violation_pct":  100 * static.ViolationRate(),
		"savings_pct":           100 * (1 - elastic.CostUSD/static.CostUSD),
	}, nil
}

// --- E8 ---

// e8Result carries the per-staleness-class violation counts of one
// run of the §3.3.2 deadline-queue experiment.
type e8Result struct {
	TightViolations int64 // 1s-bound updates delivered late
	LooseViolations int64 // 60s-bound updates delivered late
	Delivered       int64
	MaxTightStale   time.Duration
}

// simulateE8 drives 100 writes/s for 60 seconds — half with a 1s
// staleness bound, half with 60s — against a pump that can deliver
// only 80/s. Demand exceeds capacity during the burst, so something
// must be late: the deadline discipline sacrifices loose bounds to
// protect tight ones, while FIFO treats them alike and violates both.
func simulateE8(order replication.Order) e8Result {
	vc := clock.NewVirtual(t0)
	q := replication.NewQueue(order)
	pump := replication.NewPump(q, func(ns, node string, recs []record.Record) error {
		return nil
	}, vc)
	var res e8Result
	ver := uint64(0)
	for tick := 0; tick < 180; tick++ {
		if tick < 60 {
			for w := 0; w < 50; w++ {
				ver++
				pump.Enqueue("tight", record.Record{Key: []byte{1}, Version: ver}, []string{"r"}, time.Second)
				ver++
				pump.Enqueue("loose", record.Record{Key: []byte{2}, Version: ver}, []string{"r"}, time.Minute)
			}
		}
		pump.Drain(80)
		if st := pump.Tracker().Staleness("tight", "r"); st > res.MaxTightStale {
			res.MaxTightStale = st
		}
		vc.Advance(time.Second)
	}
	for pump.Drain(1000) > 0 {
	}
	res.TightViolations = pump.ViolationsFor("tight")
	res.LooseViolations = pump.ViolationsFor("loose")
	res.Delivered = pump.Stats().Delivered
	return res
}

func runE8(expgrid.Params) (expgrid.Metrics, error) {
	dl := simulateE8(replication.ByDeadline)
	ff := simulateE8(replication.FIFO)
	fmt.Println("mixed staleness bounds (1s and 60s), 100 writes/s against 80/s of")
	fmt.Println("propagation bandwidth for 60s — something must be late; what is?")
	fmt.Printf("\n  %-22s %18s %18s %16s\n", "queue discipline", "1s-bound late", "60s-bound late", "max 1s-staleness")
	fmt.Printf("  %-22s %18d %18d %16s\n", "deadline (SCADS)", dl.TightViolations, dl.LooseViolations, dl.MaxTightStale.Truncate(time.Millisecond))
	fmt.Printf("  %-22s %18d %18d %16s\n", "FIFO (ablation)", ff.TightViolations, ff.LooseViolations, ff.MaxTightStale.Truncate(time.Millisecond))
	fmt.Println("\n\"the priority queue allows the system to complete important updates")
	fmt.Println("first [and] easily detect when it is in danger of getting behind")
	fmt.Println("schedule\" (§3.3.2): the deadline order spends the scarce bandwidth on")
	fmt.Println("tight bounds; FIFO blows through them while loose bounds had slack.")
	return expgrid.Metrics{
		"deadline_tight_violations": float64(dl.TightViolations),
		"fifo_tight_violations":     float64(ff.TightViolations),
		"deadline_loose_violations": float64(dl.LooseViolations),
		"fifo_loose_violations":     float64(ff.LooseViolations),
	}, nil
}

// --- helpers ---

// must aborts the experiment run on an unexpected error. log.Fatal
// rather than panic: an operational failure (port in use, disk full)
// should print one line, not a goroutine dump — panic(err) is reserved
// for the library's Must* static-input constructors.
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// b2f reports a held/violated invariant as a gateable 1/0 metric.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
