package scads

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/director"
)

// Observe rolls the SLA monitor's current interval into a
// director.Observation, attaching the replication backlog at risk of
// missing its staleness deadlines (§3.3.2) and the requirement
// contentions since the previous Observe (§3.3.1). This is the
// live-cluster counterpart of the simulator's analytic telemetry — the
// "observe" edge of the Figure 2 loop. margin is how far before a
// deadline an undelivered update counts as at risk.
func (c *Cluster) Observe(margin time.Duration) director.Observation {
	iv := c.monitor.Roll()
	atRisk := c.pump.AtRisk(margin)
	total := c.Contention().Total
	last := c.lastObservedContention.Swap(total)
	committed := 0
	if len(c.router.Namespaces()) > 0 {
		// Committed data needs at least RF distinct nodes to stay fully
		// replicated — the floor below which the director may not size.
		committed = c.cfg.ReplicationFactor
	}
	return director.Observation{
		Rate:              iv.Rate,
		Latency:           iv.Latency,
		SuccessRate:       iv.SuccessRate,
		SLAMet:            iv.Met,
		ReplicationAtRisk: atRisk,
		Contentions:       int(total - last),
		CommittedServers:  committed,
	}
}

// ElasticActuator adapts a LocalCluster into the director's Actuator:
// Request boots real storage nodes and respreads every namespace onto
// them; Release decommissions the newest nodes, migrating their ranges
// to survivors first. Both directions move data through the online
// migration manager (snapshot → delta catch-up → fenced handoff), so
// a scale action under write load never drops an acknowledged write.
// This closes the Figure 2 loop against actual data-bearing nodes
// rather than the abstract cloud simulator.
//
// Request runs asynchronously (booting instances and redistributing
// data can take a while under load, and must not stall the director's
// control loop); Booting reports the requested-but-not-yet-serving
// count, so a control step during the boot window sees running+booting
// instead of double-provisioning — the exact failure mode of a repair
// storm, where migrations back up behind the migration manager's
// parallelism bound. Wait blocks until in-flight requests settle.
type ElasticActuator struct {
	lc *LocalCluster
	// OnError receives rebalancing errors (default: log).
	OnError func(error)

	booting atomic.Int64
	wg      sync.WaitGroup

	// testHookBooting, when set, runs at the start of a Request's
	// asynchronous work, while the requested nodes are still counted
	// as booting.
	testHookBooting func()
	// testHookReleaseWaiting, when set, runs once per victim when
	// Release first observes an in-flight repair touching it and
	// starts waiting for the repair journal to drain.
	testHookReleaseWaiting func(victim string)
}

var _ director.Actuator = (*ElasticActuator)(nil)

// NewElasticActuator returns an actuator managing lc's node set.
func NewElasticActuator(lc *LocalCluster) *ElasticActuator {
	return &ElasticActuator{lc: lc}
}

// Running implements director.Actuator.
func (a *ElasticActuator) Running() int {
	return len(a.lc.Directory().Up())
}

// Booting implements director.Actuator: the number of instances
// requested but not yet registered as serving. The director adds this
// to Running when sizing, so capacity already on its way is never
// requested twice.
func (a *ElasticActuator) Booting() int { return int(a.booting.Load()) }

// Request implements director.Actuator: boot n nodes and move data
// onto them. Returns immediately; the boot and the data spread proceed
// in the background (Wait blocks until they settle). Each node leaves
// the booting count the moment it starts serving — from then on it is
// visible through Running.
func (a *ElasticActuator) Request(n int) {
	if n <= 0 {
		return
	}
	a.booting.Add(int64(n))
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		if a.testHookBooting != nil {
			a.testHookBooting()
		}
		for i := 0; i < n; i++ {
			if _, err := a.lc.AddStorageNode(); err != nil {
				a.booting.Add(int64(i - n))
				a.fail(err)
				return
			}
			a.booting.Add(-1)
		}
		if err := a.lc.SpreadAll(); err != nil {
			a.fail(err)
		}
	}()
}

// Wait blocks until all in-flight Request work (node boots and data
// spreads) has settled.
func (a *ElasticActuator) Wait() { a.wg.Wait() }

// Release implements director.Actuator: decommission the n
// most-recently added serving nodes, draining their data first. It
// waits for in-flight Request work to settle before picking victims —
// releasing a node while a concurrent spread is still migrating data
// onto it would tear down the donor copy of ranges that just landed
// there.
func (a *ElasticActuator) Release(n int) {
	a.Wait()
	ids := a.lc.Directory().Up() // sorted: node-### sorts by creation order
	if len(ids)-n < 1 {
		n = len(ids) - 1 // never go below one node
	}
	for i := 0; i < n; i++ {
		victim, survivors := ids[len(ids)-1-i], ids[:len(ids)-1-i]
		// A repair job rebuilding one of the victim's ranges may still
		// be in flight; decommissioning now would race its replacement
		// choice. Repair jobs always terminate, so wait for the journal
		// to drain — bounded, so a wedged job cannot block scale-down
		// forever (the decommission migration itself restores RF).
		waiting := false
		//lint:wallclock-ok the repair-drain interlock waits on a concurrent repair goroutine making real progress, not on modelled time — a virtual clock would deadlock here
		for deadline := time.Now().Add(repairDrainTimeout); a.repairsInFlightOn(victim) && time.Now().Before(deadline); {
			if !waiting {
				waiting = true
				if a.testHookReleaseWaiting != nil {
					a.testHookReleaseWaiting(victim)
				}
			}
			time.Sleep(2 * time.Millisecond) //lint:wallclock-ok paces polling of a concurrent repair goroutine; virtual time would never advance it
		}
		if err := a.lc.DecommissionNode(victim, survivors); err != nil {
			a.fail(err)
			return
		}
		a.lc.Transport.Unregister("local://" + victim)
		a.lc.Directory().Remove(victim)
	}
}

// repairDrainTimeout bounds how long Release waits for in-flight
// repairs of a victim's ranges before decommissioning anyway.
const repairDrainTimeout = 30 * time.Second

// repairsInFlightOn reports whether any range replicated on node has a
// repair job journaled as in flight.
func (a *ElasticActuator) repairsInFlightOn(node string) bool {
	c := a.lc.Cluster
	for _, ns := range c.router.Namespaces() {
		m, ok := c.router.Map(ns)
		if !ok {
			continue
		}
		for _, rng := range m.Ranges() {
			for _, id := range rng.Replicas {
				if id == node && c.repairs.RangeInFlight(ns, rng.Start) {
					return true
				}
			}
		}
	}
	// The node may also be the *destination* of a repair whose flip has
	// not landed in the map yet.
	return c.repairs.InFlightOn(node)
}

func (a *ElasticActuator) fail(err error) {
	if a.OnError != nil {
		a.OnError(err)
		return
	}
	log.Printf("scads: elastic actuator: %v", err)
}
