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
	"scads/internal/sla"
	"scads/internal/workload"
)

// This file closes the paper's Figure 2 loop end to end against a real
// LocalCluster: a workload trace drives per-class telemetry, the
// director observes SLO attainment through sla.Classes and sizes the
// fleet with the learned per-op cost curves (mlmodel.FleetModel), and
// every scale action moves real data through the lossless migration
// path (ElasticActuator → AddStorageNode/SpreadAll/DecommissionNode).
// A background writer hammers acknowledged writes throughout, so the
// run proves the paper's central elasticity claim: capacity follows
// demand and no acked write is ever lost across scale events.
//
// Telemetry is synthetic (cloudsim.ClassServiceModel on a virtual
// clock), so the control-plane metrics — SLO-violation minutes,
// server-hours, cost — are bit-for-bit deterministic per scenario and
// gateable in CI; the data-plane writer runs on the wall clock against
// the real cluster and is gated only on its hard zero (lost writes).

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

// ElasticScenario parameterises one end-to-end autoscaling run.
type ElasticScenario struct {
	Name string
	// Seed drives the background writer's key/op choices.
	Seed int64
	// Start anchors the virtual clock; Duration is simulated time.
	Start    time.Time
	Duration time.Duration
	// Tick is the control interval (default 1m).
	Tick time.Duration
	// Trace is the total offered rate (req/s) over time;
	// elasticWriteFraction of it is writes, the rest reads.
	Trace workload.Trace
	// Keys picks which user the background writer touches — the
	// hotspot-shift scenario moves this window across ranges while
	// scale events are in flight.
	Keys workload.Hotspot
	// InitialServers is the starting fleet (default 3).
	InitialServers int
}

// What every scenario shares. The per-class SLO defended is paperSLA.
const (
	// elasticWriteFraction splits Trace into the write class.
	elasticWriteFraction = 0.1
	// elasticBootDelay models instance provisioning lag on the virtual
	// clock: requested capacity serves only after it.
	elasticBootDelay = 90 * time.Second
	// elasticOpsPerTick is how many real cluster operations the control
	// loop drives synchronously each tick — guaranteed ledger coverage
	// across every tick; the concurrent writer adds interleaving on top.
	elasticOpsPerTick = 6
	// elasticRF is the real cluster's replication factor, and with it
	// the director's floor; elasticMaxServers is its cap.
	elasticRF         = 2
	elasticMaxServers = 16
	// elasticPricePerHour prices server-hours.
	elasticPricePerHour = 0.10
)

// elasticService is the synthetic per-class service curve: reads 2ms,
// writes 8ms of server time, 5ms base latency.
var elasticService = cloudsim.ClassServiceModel{
	Demand: map[string]float64{"read": 0.002, "write": 0.008},
	Base:   5 * time.Millisecond,
}

func (sc ElasticScenario) withDefaults() ElasticScenario {
	if sc.Tick <= 0 {
		sc.Tick = time.Minute
	}
	if sc.Keys.Users <= 0 {
		sc.Keys.Users = 240
	}
	if sc.InitialServers <= 0 {
		sc.InitialServers = 3
	}
	return sc
}

// ElasticResult summarises one scenario run. The control-plane
// metrics (violation minutes, server-hours, cost, scale counts) are
// deterministic for a given scenario; the write-ledger counts depend
// on wall-clock interleaving but LostWrites and CorruptReads must be
// zero on every run — that is the lossless-migration guarantee.
type ElasticResult struct {
	Name  string
	Ticks int
	// SLOViolationMinutes is simulated minutes in violation of any
	// class's SLO.
	SLOViolationMinutes float64
	// ServerHours is the integral of fleet size over simulated time;
	// CostUSD prices it.
	ServerHours  float64
	CostUSD      float64
	PeakServers  int
	FinalServers int
	// ScaleUps/ScaleDowns count control decisions that acted;
	// NodesAdded/NodesRemoved count the nodes they moved.
	ScaleUps, ScaleDowns     int
	NodesAdded, NodesRemoved int
	// AckedWrites is how many background writes were acknowledged;
	// LostWrites how many of those later read back missing, and
	// CorruptReads how many read back a stale value.
	AckedWrites  int64
	LostWrites   int
	CorruptReads int
}

// bootDelayActuator defers ElasticActuator.Request by a modelled boot
// delay on the virtual clock: the director sees requested capacity as
// Booting until the delay elapses and Poll releases it into the real
// cluster. Scale-down is immediate (terminating runs at API speed).
type bootDelayActuator struct {
	clk   clock.Clock
	delay time.Duration
	inner *ElasticActuator

	mu      sync.Mutex
	pending []time.Time // ready-times of requested-but-unbooted nodes
}

var _ director.Actuator = (*bootDelayActuator)(nil)

func (a *bootDelayActuator) Running() int { return a.inner.Running() }

func (a *bootDelayActuator) Booting() int {
	a.mu.Lock()
	n := len(a.pending)
	a.mu.Unlock()
	return n + a.inner.Booting()
}

func (a *bootDelayActuator) Request(n int) {
	if n <= 0 {
		return
	}
	ready := a.clk.Now().Add(a.delay)
	a.mu.Lock()
	for i := 0; i < n; i++ {
		a.pending = append(a.pending, ready)
	}
	a.mu.Unlock()
}

func (a *bootDelayActuator) Release(n int) { a.inner.Release(n) }

// Poll boots every pending node whose delay has elapsed.
func (a *bootDelayActuator) Poll() {
	now := a.clk.Now()
	due := 0
	a.mu.Lock()
	rest := a.pending[:0]
	for _, t := range a.pending {
		if t.After(now) {
			rest = append(rest, t)
		} else {
			due++
		}
	}
	a.pending = rest
	a.mu.Unlock()
	a.inner.Request(due)
}

// warmElasticModels pre-trains the director's fleet and capacity
// models from the scenario's analytic service curve, the same way a
// production deployment would arrive with models fit offline from
// history (§4's "use of machine learning models"). Two interleaved
// mixes make the per-class regression well-posed.
func warmElasticModels(d *director.Director) {
	for i := 1; i <= 12; i++ {
		u := 0.07 * float64(i) // utilisation 0.07..0.84
		wf := elasticWriteFraction
		if i%2 == 0 {
			wf = elasticWriteFraction / 2
		}
		mean := wf*elasticService.Demand["write"] + (1-wf)*elasticService.Demand["read"]
		rate := u / mean // per-server rate hitting utilisation u
		classRates := map[string]float64{
			"read":  rate * (1 - wf),
			"write": rate * wf,
		}
		lat := elasticService.Latency(classRates, 1)
		d.Fleet.Observe(classRates, lat.Seconds())
		d.Capacity.Observe(rate, lat.Seconds())
	}
}

// RunElasticScenario executes one autoscaling scenario end to end and
// returns its metrics. It is an error for the actuator to fail a
// scale action; lost or corrupted acked writes are reported in the
// result, not as an error, so callers can gate on them explicitly.
func RunElasticScenario(sc ElasticScenario) (ElasticResult, error) {
	sc = sc.withDefaults()
	res := ElasticResult{Name: sc.Name}

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
	for i := 0; i < sc.Keys.Users; i++ {
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
	q := sc.Keys.Users / 4
	if err := lc.SplitTable("users",
		workload.UserID(q), workload.UserID(2*q), workload.UserID(3*q)); err != nil {
		return res, err
	}
	if err := lc.SpreadAll(); err != nil {
		return res, err
	}

	var (
		actMu   sync.Mutex
		actErrs []error
	)
	base := NewElasticActuator(lc)
	base.OnError = func(err error) {
		actMu.Lock()
		actErrs = append(actErrs, err)
		actMu.Unlock()
	}
	act := &bootDelayActuator{clk: vc, delay: elasticBootDelay, inner: base}

	classes := sla.NewClasses(vc, paperSLA, 1024)
	d := director.New(vc, act, director.Config{
		SLALatency:      paperSLA.LatencyBound,
		ForecastHorizon: elasticBootDelay + 2*sc.Tick,
		MinServers:      elasticRF,
		MaxServers:      elasticMaxServers,
		Policy:          director.ModelDriven,
	})
	warmElasticModels(d)

	// Two real-op drivers share a last-acked ledger: a synchronous
	// per-tick driver guarantees coverage of every control interval,
	// and a concurrent wall-clock writer keeps ops in flight *during*
	// the migrations scale events trigger. Each owns one key parity
	// (sync even, concurrent odd), so last-acked-per-key stays well
	// defined without cross-goroutine write ordering.
	type ledger struct {
		mu    sync.Mutex
		last  map[string]string // key id → last acked value
		acked int64
	}
	led := &ledger{last: make(map[string]string)}
	doOp := func(rnd *rand.Rand, round int64, parity int) {
		k := sc.Keys.Key(rnd, vc.Now())&^1 | parity
		if k >= sc.Keys.Users {
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
				led.mu.Lock()
				led.last[id] = name
				led.acked++
				led.mu.Unlock()
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

	end := sc.Start.Add(sc.Duration)
	for vc.Now().Before(end) {
		// Release matured boots, then let adds/spreads settle so the
		// fleet size this tick is deterministic.
		act.Poll()
		base.Wait()
		running := base.Running()
		if running > res.PeakServers {
			res.PeakServers = running
		}
		for i := 0; i < elasticOpsPerTick; i++ {
			syncRound++
			doOp(syncRnd, syncRound, 0)
		}

		total := sc.Trace.Rate(vc.Now())
		classRates := map[string]float64{
			"read":  total * (1 - elasticWriteFraction),
			"write": total * elasticWriteFraction,
		}
		lat := elasticService.Latency(classRates, running)
		succ := elasticService.SuccessRate(classRates, running)
		for class, r := range classRates {
			n := int64(r * sc.Tick.Seconds())
			if n <= 0 {
				continue
			}
			ok := int64(float64(n) * succ / 100)
			classes.RecordBatch(class, ok, lat, true)
			classes.RecordBatch(class, n-ok, lat, false)
		}
		res.ServerHours += float64(running) * sc.Tick.Hours()

		vc.Advance(sc.Tick)
		up := classes.Roll()
		if !up.Met {
			res.SLOViolationMinutes += sc.Tick.Minutes()
		}
		dec := d.Step(director.Observation{
			Rate:             up.Rate,
			ClassRates:       up.ClassRates,
			Latency:          up.Latency,
			SuccessRate:      up.SuccessRate,
			SLAMet:           up.Met,
			CommittedServers: elasticRF,
		})
		if dec.Added > 0 {
			res.ScaleUps++
			res.NodesAdded += dec.Added
		}
		if dec.Removed > 0 {
			res.ScaleDowns++
			res.NodesRemoved += dec.Removed
		}
		res.Ticks++
	}

	close(stop)
	wg.Wait()
	act.Poll()
	base.Wait()
	res.FinalServers = base.Running()
	res.CostUSD = res.ServerHours * elasticPricePerHour

	// Verify the ledger: every acked write must read back its last
	// acked value after replication drains.
	if err := lc.FlushAll(); err != nil {
		return res, err
	}
	led.mu.Lock()
	res.AckedWrites = led.acked
	for id, want := range led.last {
		r, found, err := lc.Get("users", Row{"id": id})
		if err != nil || !found {
			res.LostWrites++
			continue
		}
		if r["name"] != want {
			res.CorruptReads++
		}
	}
	led.mu.Unlock()

	actMu.Lock()
	defer actMu.Unlock()
	return res, errors.Join(actErrs...)
}

// ElasticDiurnalScenario is the daily cycle: demand triples from
// morning trough to afternoon peak and the fleet must follow it up
// and back down. Starts at 8am so the run rides the rising edge
// through the peak into the evening decline.
func ElasticDiurnalScenario() ElasticScenario {
	start := time.Date(2009, 1, 4, 8, 0, 0, 0, time.UTC)
	return ElasticScenario{
		Name:           "diurnal",
		Seed:           1,
		Start:          start,
		Duration:       12 * time.Hour,
		Trace:          workload.Diurnal{Base: 900, Amplitude: 600},
		Keys:           workload.Hotspot{Users: 240, Start: start},
		InitialServers: 4,
	}
}

// ElasticFlashCrowdScenario is the paper's day-after-Halloween spike:
// a 5× surge over ten minutes, an hour at the top, then decay. The
// director must ride it up fast enough to bound SLO-violation minutes
// and come back down after.
func ElasticFlashCrowdScenario() ElasticScenario {
	start := time.Date(2009, 1, 4, 8, 0, 0, 0, time.UTC)
	return ElasticScenario{
		Name:     "flash-crowd",
		Seed:     2,
		Start:    start,
		Duration: 6 * time.Hour,
		Trace: workload.Spike{
			Baseline:  workload.Constant(600),
			At:        start.Add(2 * time.Hour),
			Rise:      10 * time.Minute,
			Duration:  time.Hour,
			Magnitude: 5,
		},
		Keys:           workload.Hotspot{Users: 240, Start: start},
		InitialServers: 3,
	}
}

// ElasticHotspotShiftScenario keeps the aggregate rate on a mild ramp
// while the hot tenth of the keyspace advances every 45 minutes — the
// writer's load keeps landing on different ranges as scale events
// migrate them, which is exactly the window in which a lossy
// migration would drop acked writes.
func ElasticHotspotShiftScenario() ElasticScenario {
	start := time.Date(2009, 1, 4, 8, 0, 0, 0, time.UTC)
	return ElasticScenario{
		Name:     "hotspot-shift",
		Seed:     3,
		Start:    start,
		Duration: 6 * time.Hour,
		Trace:    workload.Diurnal{Base: 800, Amplitude: 500},
		Keys: workload.Hotspot{
			Users:       240,
			ShiftPeriod: 45 * time.Minute,
			Start:       start,
		},
		InitialServers: 4,
	}
}
