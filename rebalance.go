package scads

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"scads/internal/balancer"
	"scads/internal/partition"
)

// Re-exported balancer types: load-aware rebalancing plans.
type (
	// BalanceAction is one proposed split or move.
	BalanceAction = balancer.Action
	// BalanceConfig tunes the rebalancing planner.
	BalanceConfig = balancer.Config
)

// RebalancePlan derives a partitioning plan from the workload window
// tracked since the last Rebalance: ranges hot enough that no
// placement can absorb them are split at the tracker's median observed
// key, then whole ranges move from overloaded to underloaded nodes —
// §3.3.1's "current workload information … used to automatically
// configure system parameters such as partitioning". The plan is
// returned without being executed.
func (c *Cluster) RebalancePlan(cfg BalanceConfig) []BalanceAction {
	var loads []balancer.RangeLoad
	for _, obs := range c.loads.Snapshot() {
		m, ok := c.router.Map(obs.Namespace)
		if !ok {
			continue
		}
		rng := m.Lookup(obs.Start)
		loads = append(loads, balancer.RangeLoad{
			Namespace: obs.Namespace,
			Start:     rng.Start,
			Replicas:  rng.Replicas,
			Ops:       obs.Ops,
			SplitKey:  obs.MedianKey,
		})
	}
	return balancer.Plan(loads, c.dir.Up(), cfg)
}

// Rebalance plans against the tracked workload window and executes the
// plan: splits change only the partition map (both halves keep their
// replicas); moves migrate data online and flip routing via MoveRange.
// The tracking window resets afterwards so the next plan reflects the
// new layout. Returns the executed actions — on a mid-plan failure the
// returned prefix is exactly what took effect, so the operator (or a
// retry) knows which splits and moves already hold.
func (c *Cluster) Rebalance(cfg BalanceConfig) ([]BalanceAction, error) {
	executed, err := c.executePlan(c.RebalancePlan(cfg))
	if err != nil {
		return executed, err
	}
	c.loads.Reset()
	return executed, nil
}

// executePlan applies plan actions in order, returning the executed
// prefix alongside any error.
func (c *Cluster) executePlan(plan []BalanceAction) ([]BalanceAction, error) {
	executed := make([]BalanceAction, 0, len(plan))
	for _, a := range plan {
		switch a.Kind {
		case balancer.ActionSplit:
			m, ok := c.router.Map(a.Namespace)
			if !ok {
				return executed, fmt.Errorf("scads: rebalance: no partition map for %s", a.Namespace)
			}
			if err := m.Split(a.At); err != nil {
				return executed, fmt.Errorf("scads: rebalance split %s: %w", a.Namespace, err)
			}
		case balancer.ActionMove:
			// Re-look up by the range's start: if an earlier action in
			// this plan split the planned range, only the post-split
			// left half — the range still containing a.Start — moves.
			// The right half stays where the split left it and gets its
			// own action in a later plan if it is still hot.
			if err := c.MoveRange(a.Namespace, a.Start, a.Target); err != nil {
				return executed, fmt.Errorf("scads: rebalance move %s: %w", a.Namespace, err)
			}
		}
		executed = append(executed, a)
	}
	return executed, nil
}

// LoadSnapshot exposes the tracked per-range workload window (for
// operator tooling and tests).
func (c *Cluster) LoadSnapshot() []balancer.RangeObservation {
	return c.loads.Snapshot()
}

// SpreadNamespace redistributes a namespace's ranges round-robin over
// the currently serving nodes (partition.Spread, preserving the
// replication factor), migrating data online as needed. The director
// calls this after adding or removing capacity so new machines
// actually take load — the data-movement half of "scaling up and
// down" (§1.1). Each range is planned over the nodes serving when its
// move takes the range's lock, so a node lost while earlier ranges
// move is in no later range's plan.
func (c *Cluster) SpreadNamespace(namespace string) error {
	return c.reconfigure(namespace, func(i int, _ partition.Range) ([]string, error) {
		return partition.Spread(i, c.dir.Up(), c.cfg.ReplicationFactor), nil
	})
}

// reconfigure is the one range loop behind SpreadNamespace,
// DecommissionNode and EnforceDurability: it asks target for every
// range's replica set first, so a refusal moves nothing, then moves
// every range concurrently with target as its plan, which the
// migration manager runs again under the range's lock on the range as
// it then stands — the manager's semaphore bounds how many are in
// flight. A move whose flip a failover or a split got to first plans
// once more from the range as that left it.
func (c *Cluster) reconfigure(namespace string, target func(i int, rng partition.Range) ([]string, error)) error {
	m, ok := c.router.Map(namespace)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", namespace)
	}
	ranges := m.Ranges()
	for i, rng := range ranges {
		if _, err := target(i, rng); err != nil {
			return err
		}
	}
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, rng := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan := func(cur partition.Range) ([]string, error) { return target(i, cur) }
			err := c.migrations.MoveRange(m, namespace, rng.Start, plan)
			if errors.Is(err, partition.ErrReplicasChanged) {
				err = c.migrations.MoveRange(m, namespace, rng.Start, plan)
			}
			if err != nil {
				errs[i] = fmt.Errorf("scads: move %s range %d: %w", namespace, i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// SpreadAll runs SpreadNamespace over every namespace with a partition
// map.
func (c *Cluster) SpreadAll() error {
	for _, ns := range c.router.Namespaces() {
		if err := c.SpreadNamespace(ns); err != nil {
			return err
		}
	}
	return nil
}

// DecommissionNode removes a (possibly dead) node from every replica
// group, replacing it with the least-loaded serving candidate not
// already in the group (Router.Spares) via online migration from the
// surviving replicas, so this is the recovery path after a crash as
// well as the scale-down path before terminating an instance. With no
// such candidate the group shrinks. The node drains first: it keeps
// serving while its ranges move, but no placement — repair included —
// adds it again. On success it is marked down; on a refusal or a
// failed move the drain is lifted.
func (c *Cluster) DecommissionNode(nodeID string, candidates []string) error {
	c.dir.Drain(nodeID, true)
	up := c.dir.Up()
	pool := slices.DeleteFunc(slices.Clone(candidates), func(id string) bool { return !slices.Contains(up, id) })
	for _, ns := range c.router.Namespaces() {
		err := c.reconfigure(ns, func(_ int, rng partition.Range) ([]string, error) {
			idx := slices.Index(rng.Replicas, nodeID)
			if idx < 0 {
				return rng.Replicas, nil
			}
			want := slices.Clone(rng.Replicas)
			if spares := c.router.Spares(pool, want); len(spares) > 0 {
				want[idx] = spares[0]
				return want, nil
			}
			if len(want) == 1 {
				return nil, fmt.Errorf("scads: decommission %s would leave %s with no replicas", nodeID, ns)
			}
			return slices.Delete(want, idx, idx+1), nil
		})
		if err != nil {
			c.dir.Drain(nodeID, false)
			return err
		}
	}
	c.dir.MarkDown(nodeID)
	return nil
}
