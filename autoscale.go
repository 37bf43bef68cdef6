package scads

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/cloudsim"
	"scads/internal/director"
	"scads/internal/ledger"
	"scads/internal/sim"
	"scads/internal/workload"
)

// This file closes the paper's Figure 2 loop end to end against a real
// LocalCluster. The loop itself is sim.Run — trace, synthetic
// telemetry, SLA monitor, director, boot-delay fleet, all on a virtual
// clock — and a scenario is one of its configurations; what this file
// adds is the data plane behind it. Every tick LocalCluster.Resize
// sets the cluster to the simulated fleet's size, so every scale
// action moves real data through the lossless migration path
// (AddStorageNode/SpreadAll/DecommissionNode), while a background
// writer hammers acknowledged writes throughout. The run proves the
// paper's central elasticity claim: capacity follows demand and no
// acked write is ever lost across scale events.
//
// The control-plane metrics — SLO-violation minutes, server-hours —
// are bit-for-bit deterministic per scenario and gateable in CI; the
// writer runs on the wall clock against the real cluster and is gated
// only on its hard zeros (lost and corrupted writes).

// elasticDDL is the schema the autoscaling scenarios run against —
// the paper's users entity, enough to exercise real range splits,
// migrations and reads under scale events.
const elasticDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
`

// ElasticScenario is one end-to-end autoscaling run: a configuration
// of the control loop plus what the real cluster behind it needs.
type ElasticScenario struct {
	Name string
	// Seed drives the background writer's key/op choices.
	Seed int64
	// ShiftPeriod is how often the hot tenth of the keyspace the
	// writers touch moves on — across ranges, while scale events are in
	// flight. Zero pins it.
	ShiftPeriod time.Duration
	// Config is the loop: Start is when the trace begins (the cluster
	// is up by then) and InitialServers the cluster's starting size.
	// RunElasticScenario owns OnTick.
	sim.Config
}

// What every scenario shares. The SLO defended is the loop's (the
// paper's running example).
const (
	// elasticOpsPerTick is how many real cluster operations the control
	// loop drives synchronously each tick — guaranteed ledger coverage
	// across every tick; the concurrent writer adds interleaving on top.
	elasticOpsPerTick = 6
	// elasticRF is the real cluster's replication factor, and with it
	// the director's floor.
	elasticRF = 2
	// elasticUsers is the size of the keyspace.
	elasticUsers = 240
)

// elasticTelemetry is the scenarios' telemetry source: reads cost 2ms
// and writes 8ms of server time over a 5ms base latency, and a tenth
// of the trace's rate is writes, so an op costs D̄ = 2.6ms on average.
// At that fixed mix the queueing latency 5ms + D̄/(1−ρ) is one curve:
// Base 5ms + D̄, K = D̄, one server saturating at 1/D̄ req/s. Its
// Profile is the history the director's capacity model arrives fit on,
// the way a production deployment would fit it offline (§4's "use of
// machine learning models").
var elasticTelemetry = cloudsim.ServiceModel{
	CapacityPerServer: 1 / 0.0026,
	Base:              7600 * time.Microsecond,
	K:                 2600 * time.Microsecond,
}

// elasticConfig is the loop configuration the scenarios share: capacity
// serves 90s after it is requested, and the model-driven director sizes
// between the replication factor and sixteen servers.
func elasticConfig(d time.Duration, trace workload.Trace, initial int) sim.Config {
	return sim.Config{
		Start: elasticStart, Duration: d, Tick: time.Minute, Trace: trace, InitialServers: initial,
		Service:  elasticTelemetry,
		Cloud:    cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10},
		Director: &director.Config{MinServers: elasticRF, MaxServers: 16},
	}
}

// ElasticResult is a scenario's outcome: the loop's deterministic
// control-plane result plus the write ledger's verdict. The ledger
// counts depend on wall-clock interleaving, but LostWrites and
// CorruptReads must be zero on every run — that is the
// lossless-migration guarantee.
type ElasticResult struct {
	sim.Result
	// AckedWrites is how many writes were acknowledged; LostWrites how
	// many of those later read back missing, and CorruptReads how many
	// read back a stale value.
	AckedWrites  int64
	LostWrites   int
	CorruptReads int
}

// RunElasticScenario executes one autoscaling scenario end to end and
// returns its metrics. It is an error for Resize to fail a scale
// action; lost or corrupted acked writes are reported in the
// result, not as an error, so callers can gate on them explicitly.
func RunElasticScenario(sc ElasticScenario) (ElasticResult, error) {
	var res ElasticResult
	keys := workload.Hotspot{Users: elasticUsers, ShiftPeriod: sc.ShiftPeriod, Start: sc.Start}
	vc := clock.NewVirtual(sc.Start)
	lc, err := NewLocalCluster(sc.InitialServers, Config{
		Clock:             vc,
		ReplicationFactor: elasticRF,
	})
	if err != nil {
		return res, err
	}
	defer lc.Close()
	if err := lc.DefineSchema(elasticDDL); err != nil {
		return res, err
	}

	// Seed the keyspace and split it so scale events move real ranges.
	for i := 0; i < keys.Users; i++ {
		if err := lc.Insert("users", Row{
			"id":       workload.UserID(i),
			"name":     "seed",
			"birthday": int64(i%365 + 1),
		}); err != nil {
			return res, err
		}
	}
	if err := lc.FlushAll(); err != nil {
		return res, err
	}
	q := keys.Users / 4
	if err := lc.SplitTable("users",
		workload.UserID(q), workload.UserID(2*q), workload.UserID(3*q)); err != nil {
		return res, err
	}
	if err := lc.SpreadAll(); err != nil {
		return res, err
	}

	// Two real-op drivers share one ledger: a synchronous per-tick
	// driver guarantees coverage of every control interval, and a
	// concurrent wall-clock writer keeps ops in flight *during* the
	// migrations scale events trigger. Each owns one key parity (sync
	// even, concurrent odd), so the last acked write of a key is well
	// defined without cross-goroutine write ordering.
	var led ledger.Ledger
	doOp := func(rnd *rand.Rand, round int64, parity int) {
		k := keys.Key(rnd, vc.Now())&^1 | parity
		if k >= keys.Users {
			k = parity
		}
		id := workload.UserID(k)
		if rnd.Float64() < 0.5 {
			name := fmt.Sprintf("w%d-%d", parity, round)
			err := lc.Insert("users", Row{
				"id":       id,
				"name":     name,
				"birthday": int64(round%365 + 1),
			})
			if err == nil {
				led.Put(id, name)
			}
		} else {
			lc.Get("users", Row{"id": id}) // exercise routing under migration
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(sc.Seed))
		var round int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			round++
			doOp(rnd, round, 1)
			runtime.Gosched()
		}
	}()
	syncRnd := rand.New(rand.NewSource(sc.Seed + 1))
	var syncRound int64
	var resizeErrs []error

	cfg := sc.Config
	// The loop spends its first BootDelay booting the seed fleet; the
	// cluster is already up, so the loop starts that much early and the
	// trace begins at sc.Start.
	cfg.Start = sc.Start.Add(-cfg.Cloud.BootDelay)
	cfg.Duration += cfg.Cloud.BootDelay
	cfg.OnTick = func(now time.Time, running int) {
		vc.AdvanceTo(now)
		// The cluster follows the simulated fleet: booted capacity joins
		// and takes its share of every namespace, released nodes drain
		// to the survivors. Settled before the tick's telemetry, so the
		// fleet size a tick is served with is deterministic.
		if err := lc.Resize(running); err != nil {
			resizeErrs = append(resizeErrs, err)
		}
		for i := 0; i < elasticOpsPerTick; i++ {
			syncRound++
			doOp(syncRnd, syncRound, 0)
		}
	}
	res.Result = sim.Run(cfg)
	close(stop)
	wg.Wait()

	// Verify the ledger: every acked write must read back its last
	// acked value after replication drains.
	if err := lc.FlushAll(); err != nil {
		return res, err
	}
	res.AckedWrites = led.Acked()
	// A failed read counts as lost, so Verify meets no error.
	loss, _ := led.Verify(func(id string) (string, bool, error) {
		r, found, err := lc.Get("users", Row{"id": id})
		name, _ := r["name"].(string)
		return name, found && err == nil, nil
	})
	res.LostWrites, res.CorruptReads = loss.Lost, loss.Corrupted

	return res, errors.Join(resizeErrs...)
}

// elasticStart is 8am: the scenarios ride the diurnal rising edge
// through the peak into the evening decline.
var elasticStart = time.Date(2009, 1, 4, 8, 0, 0, 0, time.UTC)

// ElasticDiurnalScenario is the daily cycle: demand triples from
// morning trough to afternoon peak and the fleet must follow it up
// and back down.
func ElasticDiurnalScenario() ElasticScenario {
	return ElasticScenario{
		Name: "diurnal", Seed: 1,
		Config: elasticConfig(12*time.Hour, workload.Diurnal{Base: 900, Amplitude: 600}, 4),
	}
}

// ElasticFlashCrowdScenario is the paper's day-after-Halloween spike:
// a 5× surge over ten minutes, an hour at the top, then decay. The
// director must ride it up fast enough to bound SLO-violation minutes
// and come back down after.
func ElasticFlashCrowdScenario() ElasticScenario {
	return ElasticScenario{
		Name: "flash-crowd", Seed: 2,
		Config: elasticConfig(6*time.Hour, workload.Spike{
			Baseline:  workload.Constant(600),
			At:        elasticStart.Add(2 * time.Hour),
			Rise:      10 * time.Minute,
			Duration:  time.Hour,
			Magnitude: 5,
		}, 3),
	}
}

// ElasticHotspotShiftScenario keeps the aggregate rate on a mild ramp
// while the hot tenth of the keyspace advances every 45 minutes — the
// writer's load keeps landing on different ranges as scale events
// migrate them, which is exactly the window in which a lossy
// migration would drop acked writes.
func ElasticHotspotShiftScenario() ElasticScenario {
	return ElasticScenario{
		Name: "hotspot-shift", Seed: 3, ShiftPeriod: 45 * time.Minute,
		Config: elasticConfig(6*time.Hour, workload.Diurnal{Base: 800, Amplitude: 500}, 4),
	}
}
