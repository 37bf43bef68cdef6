package scads

import (
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

// Resize grows or shrinks the cluster to n serving nodes, never fewer
// than one. New nodes boot and take their share of every namespace
// (SpreadAll); the newest nodes leave first, each drained to the
// survivors by DecommissionNode before it is unregistered and its
// storage engine closed. Both
// directions move data through the online migration manager, so a
// resize under write load never drops an acknowledged write. This is
// the actuate edge of the Figure 2 loop against data-bearing nodes:
// RunElasticScenario calls it every tick with the simulated fleet's
// size.
func (lc *LocalCluster) Resize(n int) error {
	up := lc.dir.Up() // sorted: node-### sorts by creation order
	n = max(n, 1)
	if n > len(up) {
		for range n - len(up) {
			if _, err := lc.AddStorageNode(); err != nil {
				return err
			}
		}
		return lc.SpreadAll()
	}
	for i := len(up) - 1; i >= n; i-- {
		victim := up[i]
		if err := lc.DecommissionNode(victim, up[:i]); err != nil {
			return err
		}
		lc.Transport.Unregister("local://" + victim)
		lc.dir.Remove(victim)
		if err := lc.dropNode(victim); err != nil {
			return err
		}
	}
	return nil
}
