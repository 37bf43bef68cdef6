package scads

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"scads/internal/admission"
	"scads/internal/session"
)

// TestMultiTenantHammer floods a cluster with an adversarial
// best-effort tenant while compliant committed tenants keep writing,
// all under the race detector. The contracts under test: admission
// never loses an acked committed write, committed classes are never
// shed before the best-effort classes (with the watermark sized above
// the committed concurrency they cannot shed at all here), and the
// adversary's pressure lands on its own quota.
func TestMultiTenantHammer(t *testing.T) {
	const (
		advWorkers  = 24
		goodWorkers = 4
		hammerFor   = 500 * time.Millisecond
	)
	lc, err := NewLocalCluster(3, Config{
		ReplicationFactor: 2,
		Admission: admission.Config{
			// BE scans shed at 10 in flight, BE writes at 12; committed
			// writes only at 16 — unreachable while only goodWorkers
			// committed ops can be in flight on top of the BE cap.
			MaxInFlight: 16,
			// The adversary's bucket empties after a few dozen
			// admissions. Only admissions debit it, the overload gate
			// sheds most attempts, and under the race detector too few
			// are admitted in hammerFor to drain a larger bucket.
			Tenants: map[string]admission.TenantConfig{
				"adversary": {Priority: admission.BestEffort, OpsPerSec: 20, Burst: 20},
				"compliant": {Priority: admission.Committed},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes makes "acked ⇒ readable through the session" a
	// guarantee rather than a replication race.
	if err := lc.ApplyConsistency(`
namespace users { session: read-your-writes; staleness: 10m; }
`); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "adv", "f2": "x"}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < advWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := lc.NewSession("users")
			sess.BindTenant("adversary")
			for i := 0; time.Since(start) < hammerFor; i++ {
				// Unpaced, error-blind: the adversary by construction.
				if i%4 == 0 {
					_, _ = lc.QuerySession("friends", map[string]any{"user": "adv"}, sess)
				} else {
					_ = lc.InsertSession("users", Row{
						"id": fmt.Sprintf("adv-%02d-%06d", w, i), "name": "a", "birthday": 1,
					}, sess)
				}
			}
		}(w)
	}

	acked := make([][]string, goodWorkers)
	lats := make([][]time.Duration, goodWorkers)
	sessions := make([]*session.Session, goodWorkers)
	for w := 0; w < goodWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := lc.NewSession("users")
			sess.BindTenant("compliant")
			sessions[w] = sess
			for i := 0; time.Since(start) < hammerFor; i++ {
				id := fmt.Sprintf("good-%02d-%06d", w, i)
				t0 := time.Now()
				err := lc.InsertSession("users", Row{"id": id, "name": "g", "birthday": 2}, sess)
				lats[w] = append(lats[w], time.Since(t0))
				if err == nil {
					acked[w] = append(acked[w], id)
				}
			}
		}(w)
	}
	wg.Wait()

	st := lc.Stats().Admission

	// Zero lost acked writes: every insert the compliant tenant saw
	// succeed must be readable through its session (read-your-writes;
	// a plain Get may legally hit a replica the async pump hasn't
	// reached yet).
	total := 0
	for w := range acked {
		total += len(acked[w])
		for _, id := range acked[w] {
			if _, found, err := lc.GetSession("users", Row{"id": id}, sessions[w]); err != nil || !found {
				t.Fatalf("acked write %s lost: found=%v err=%v", id, found, err)
			}
		}
	}
	if total == 0 {
		t.Fatal("compliant tenant landed zero writes")
	}

	// Committed classes never shed: the watermark math above makes the
	// strict priority ordering a hard zero here, not a tendency.
	if st.ShedByClass[0] != 0 || st.ShedByClass[1] != 0 {
		t.Fatalf("committed classes shed (%d writes, %d scans) while best-effort ran: %+v",
			st.ShedByClass[0], st.ShedByClass[1], st.ShedByClass)
	}

	// The adversary ran far past its 20 ops/s quota, so the bucket
	// must have pushed back.
	if st.ShedQuota == 0 {
		t.Fatalf("adversary never hit its quota: %+v", st)
	}

	// Bounded compliant latency. The bound is loose (race detector,
	// shared CI hardware) — the regression it catches is the compliant
	// tenant queueing behind the flood instead of being insulated.
	var all []time.Duration
	for w := range lats {
		all = append(all, lats[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if p99 := all[len(all)*99/100]; p99 > 2*time.Second {
		t.Fatalf("compliant p99 = %v under adversarial flood", p99)
	}
}
