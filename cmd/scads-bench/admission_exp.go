package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"scads"
	"scads/internal/admission"
	"scads/internal/expgrid"
	"scads/internal/session"
)

// runE18 is the multi-tenant admission-control experiment: N compliant
// committed tenants with zipf-skewed paced demand share a cluster with
// one adversarial best-effort tenant driving unpaced load far past its
// quota. It proves the front door's three contracts and aborts loudly
// if any fails:
//
//   - noisy-neighbor isolation: the compliant tenants' p99 write
//     latency stays inside the SLO while the adversary floods (the
//     latencies include every retry-after wait, so backpressure leaks
//     into the number if isolation fails);
//   - strict shed ordering: under the measured in-flight overload the
//     best-effort classes shed (scans first, then writes) while the
//     committed classes shed exactly zero ops — the watermark
//     arithmetic makes that a hard invariant here, not a tendency;
//   - zero acked-write loss: every compliant write acknowledged during
//     the flood is readable afterwards through its session.
//
// The adversary's pressure must also land where the design routes it:
// its own token bucket (quota rejections) and the hot-tenant detector
// feeding the balancer.
//
// Grid parameters: tenants, adv_workers, quota_ops, run_ms,
// max_inflight, slo_ms, rtt_ms.
func runE18(p expgrid.Params) (expgrid.Metrics, error) {
	var (
		tenants    = p.Int("tenants")
		advWorkers = p.Int("adv_workers")
		quotaOps   = p.Get("quota_ops")
		runFor     = time.Duration(p.Int("run_ms")) * time.Millisecond
		maxIF      = p.Int("max_inflight")
		sloMs      = p.Get("slo_ms")
		rtt        = time.Duration(p.Get("rtt_ms") * float64(time.Millisecond))
	)
	if tenants < 2 || tenants > 4 || advWorkers < 8 || quotaOps < 50 || maxIF < 8 || rtt <= 0 {
		return nil, fmt.Errorf("e18: invalid params: tenants=%d (2-4: keeps committed sheds structurally zero at max_inflight) adv_workers=%d (>=8) quota_ops=%g (>=50) max_inflight=%d (>=8) rtt_ms=%v (>0)", tenants, advWorkers, quotaOps, maxIF, rtt)
	}

	// Tenant configs: compliant tenant i is committed with a
	// zipf-skewed quota (quota_ops/(i+1)) it will stay inside. The
	// adversary is best-effort with a generous ops quota (20x the
	// base) so the in-flight watermark — not its ops bucket — is what
	// its write flood runs into, and a tight scan-byte budget its
	// scans overdraw immediately: overload sheds and quota rejections
	// both fire, each from the mechanism designed to produce it.
	tenantCfgs := map[string]admission.TenantConfig{
		"adversary": {
			Priority:        admission.BestEffort,
			OpsPerSec:       20 * quotaOps,
			Burst:           quotaOps,
			ScanBytesPerSec: 32 << 10,
		},
	}
	for i := 0; i < tenants; i++ {
		tenantCfgs[fmt.Sprintf("tenant-%d", i)] = admission.TenantConfig{
			Priority:  admission.Committed,
			OpsPerSec: quotaOps / float64(i+1),
		}
	}

	lc, err := scads.NewLocalCluster(3, scads.Config{
		ReplicationFactor: 2,
		Admission: admission.Config{
			MaxInFlight: maxIF,
			Tenants:     tenantCfgs,
		},
	})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	// Read-your-writes makes "acked ⇒ readable" checkable through the
	// writer's own session regardless of replication lag.
	must(lc.ApplyConsistency(`
namespace users { session: read-your-writes; staleness: 10m; }
`))
	// Seed the adversary's scan target so its queries move real bytes
	// through the scan-byte bucket: ~17 KiB per scan against a 32 KiB
	// budget, so the opening scan wave (up to 10 admitted before the
	// shed floor) overdraws the post-paid bucket by several seconds of
	// refill and scan-byte rejections fire for the rest of the run.
	for i := 0; i < 500; i++ {
		must(lc.Insert("friendships", scads.Row{"f1": "adv", "f2": fmt.Sprintf("peer%04d", i)}))
	}

	// Per-call network latency, enabled after seeding: over a
	// zero-latency in-process transport every op completes in
	// microseconds and nothing ever accumulates in flight, so the
	// overload watermarks would be dead code.
	lc.Transport.Clock = lc.Clock()
	lc.Transport.Latency = rtt

	start := time.Now()
	var wg sync.WaitGroup

	// The adversary: unpaced on success, mixing scans into writes. A
	// rejected op costs a 1ms client turnaround (any remote client pays
	// at least an RTT before resubmitting) — without it the in-process
	// reject loop degenerates into a CPU spin that starves the whole
	// benchmark process, which is scheduler DoS, not data-plane load.
	for w := 0; w < advWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := lc.NewSession("users")
			sess.BindTenant("adversary")
			for i := 0; time.Since(start) < runFor; i++ {
				var err error
				if i%3 == 0 {
					_, err = lc.QuerySession("friends", map[string]any{"user": "adv"}, sess)
				} else {
					err = lc.InsertSession("users", scads.Row{
						"id": fmt.Sprintf("adv-%02d-%06d", w, i), "name": "a", "birthday": 1,
					}, sess)
				}
				if err != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}

	// Compliant tenants: paced at half their quota (never the quota's
	// fault if they shed), latency measured around every op.
	type tenantResult struct {
		acked []string
		lats  []time.Duration
		sess  *session.Session
	}
	results := make([]tenantResult, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := lc.NewSession("users")
			sess.BindTenant(fmt.Sprintf("tenant-%d", i))
			results[i].sess = sess
			rate := quotaOps / float64(i+1) / 2
			interval := time.Duration(float64(time.Second) / rate)
			for n := 0; time.Since(start) < runFor; n++ {
				id := fmt.Sprintf("good-%d-%06d", i, n)
				t0 := time.Now()
				err := lc.InsertSession("users", scads.Row{
					"id": id, "name": "g", "birthday": i + 1,
				}, sess)
				results[i].lats = append(results[i].lats, time.Since(t0))
				if err != nil {
					log.Fatalf("e18: compliant tenant-%d write rejected: %v", i, err)
				}
				results[i].acked = append(results[i].acked, id)
				// Pace against the schedule, not the previous op's end,
				// so a slow op doesn't silently lower the offered rate.
				if wait := time.Duration(n+1) * interval; time.Since(start) < wait {
					time.Sleep(wait - time.Since(start))
				}
			}
		}(i)
	}

	// Sample the hot-tenant detector while the flood is still running
	// (its demand windows decay once traffic stops).
	time.Sleep(runFor - runFor/8)
	hot := lc.HotTenants()
	wg.Wait()
	must(lc.FlushAll())

	st := lc.Stats().Admission

	// Zero lost acked writes, via each tenant's own session.
	lost := 0
	total := 0
	var lats []time.Duration
	for i := range results {
		total += len(results[i].acked)
		lats = append(lats, results[i].lats...)
		for _, id := range results[i].acked {
			if _, found, err := lc.GetSession("users", scads.Row{"id": id}, results[i].sess); err != nil || !found {
				lost++
			}
		}
	}
	if total == 0 {
		log.Fatalf("e18: compliant tenants landed zero writes")
	}
	p99 := percentile(lats, 99)

	adversaryHot := 0.0
	for _, h := range hot {
		if h.Tenant == "adversary" {
			adversaryHot = 1
		}
	}

	committedSheds := st.ShedByClass[0] + st.ShedByClass[1]
	metrics := expgrid.Metrics{
		"compliant_acked":    float64(total),
		"compliant_p99_ms":   float64(p99.Microseconds()) / 1000,
		"lost_acked_writes":  float64(lost),
		"committed_shed_ops": float64(committedSheds),
		"be_write_sheds":     float64(st.ShedByClass[2]),
		"be_scan_sheds":      float64(st.ShedByClass[3]),
		"quota_rejections":   float64(st.ShedQuota),
		"adversary_hot":      adversaryHot,
		"peak_inflight":      float64(st.PeakInFlight),
	}

	fmt.Printf("%d committed tenants (zipf quotas from %g ops/s) vs 1 best-effort adversary x%d workers; max in-flight %d\n",
		tenants, quotaOps, advWorkers, maxIF)

	// Hard gates: the paper's SLA story under adversarial traffic.
	if lost > 0 {
		log.Fatalf("e18: ACKED WRITES LOST UNDER FLOOD: %d of %d", lost, total)
	}
	if committedSheds > 0 {
		log.Fatalf("e18: committed classes shed (%d) before best-effort exhausted: %+v", committedSheds, st.ShedByClass)
	}
	if float64(p99.Microseconds())/1000 > sloMs {
		log.Fatalf("e18: NOISY NEIGHBOR BROKE THE SLO: compliant p99 %v > %gms", p99, sloMs)
	}
	if st.ShedByClass[3] == 0 || st.ShedByClass[2] == 0 {
		log.Fatalf("e18: overload shedding never engaged (scan sheds %d, write sheds %d): flood too weak for max_inflight=%d",
			st.ShedByClass[3], st.ShedByClass[2], maxIF)
	}
	if st.ShedQuota == 0 {
		log.Fatalf("e18: adversary never hit its quota")
	}
	if adversaryHot == 0 {
		log.Fatalf("e18: hot-tenant detector missed the adversary: %v", hot)
	}

	fmt.Println("the adversary's demand landed on its own quota, the overload sheds")
	fmt.Println("degraded strictly best-effort-first, and the compliant tenants kept")
	fmt.Println("their SLO with every acknowledged write intact — per-tenant admission")
	fmt.Println("turns a noisy neighbor from an outage into that tenant's own problem.")
	return metrics, nil
}
