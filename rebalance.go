package scads

import (
	"fmt"
	"slices"
	"sync"

	"scads/internal/balancer"
	"scads/internal/cluster"
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
	up := c.dir.Up()
	nodeIDs := make([]string, len(up))
	for i, m := range up {
		nodeIDs[i] = m.ID
	}
	var loads []balancer.RangeLoad
	for _, obs := range c.loads.Snapshot() {
		m, ok := c.router.Map(obs.Namespace)
		if !ok {
			continue
		}
		start := obs.Start
		if len(start) == 0 {
			start = []byte{}
		}
		rng := m.Lookup(start)
		loads = append(loads, balancer.RangeLoad{
			Namespace: obs.Namespace,
			Start:     rng.Start,
			Replicas:  rng.Replicas,
			Ops:       obs.Ops,
			SplitKey:  obs.MedianKey,
		})
	}
	return balancer.Plan(loads, nodeIDs, cfg)
}

// Rebalance plans against the tracked workload window and executes the
// plan: splits change only the partition map (both halves keep their
// replicas); moves migrate data online and flip routing via MoveRange.
// The tracking window resets afterwards so the next plan reflects the
// new layout. Returns the executed actions — on a mid-plan failure the
// returned prefix is exactly what took effect, so the operator (or a
// retry) knows which splits and moves already hold.
func (c *Cluster) Rebalance(cfg BalanceConfig) ([]BalanceAction, error) {
	plan := c.RebalancePlan(cfg)
	executed, err := c.executePlan(plan)
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
			key := a.Start
			if key == nil {
				key = []byte{}
			}
			if err := c.MoveRange(a.Namespace, key, a.Target); err != nil {
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
// the currently serving nodes (preserving the replication factor),
// migrating data online as needed. The director calls this after
// adding or removing capacity so new machines actually take load —
// the data-movement half of "scaling up and down" (§1.1). Per-range
// migrations run concurrently, bounded by migrationParallelism.
func (c *Cluster) SpreadNamespace(namespace string) error {
	m, ok := c.router.Map(namespace)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", namespace)
	}
	up := c.dir.Up()
	if len(up) == 0 {
		return fmt.Errorf("scads: no serving nodes")
	}
	ids := make([]string, len(up))
	for i, mem := range up {
		ids[i] = mem.ID
	}
	rf := c.cfg.ReplicationFactor
	if rf > len(ids) {
		rf = len(ids)
	}
	type move struct {
		idx  int
		key  []byte
		want []string
	}
	var moves []move
	for i, rng := range m.Ranges() {
		want := make([]string, rf)
		for j := 0; j < rf; j++ {
			want[j] = ids[(i+j)%len(ids)]
		}
		if slices.Equal(rng.Replicas, want) {
			continue
		}
		key := rng.Start
		if key == nil {
			key = []byte{}
		}
		moves = append(moves, move{idx: i, key: key, want: want})
	}
	// Distinct ranges migrate independently; the manager's semaphore
	// bounds how many are actually in flight.
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, mv := range moves {
		wg.Add(1)
		go func(mv move) {
			defer wg.Done()
			if err := c.MoveRange(namespace, mv.key, mv.want); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("scads: spread %s range %d: %w", namespace, mv.idx, err)
				}
				errMu.Unlock()
			}
		}(mv)
	}
	wg.Wait()
	return firstErr
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
// group, re-replicating each affected range onto the first candidate
// not already in the group via online migration from the surviving
// replicas, so this is the recovery path after a crash as well as the
// scale-down path before terminating an instance.
func (c *Cluster) DecommissionNode(nodeID string, candidates []string) error {
	for _, ns := range c.router.Namespaces() {
		m, ok := c.router.Map(ns)
		if !ok {
			continue
		}
		for _, rng := range m.Ranges() {
			idx := -1
			for i, id := range rng.Replicas {
				if id == nodeID {
					idx = i
					break
				}
			}
			if idx < 0 {
				continue
			}
			replacement, err := pickReplacement(rng.Replicas, candidates, c.dir)
			if err != nil {
				return fmt.Errorf("scads: decommission %s from %s: %w", nodeID, ns, err)
			}
			want := append([]string(nil), rng.Replicas...)
			if replacement == "" {
				// No candidate: shrink the group (still ≥1 survivor).
				want = append(want[:idx], want[idx+1:]...)
				if len(want) == 0 {
					return fmt.Errorf("scads: decommission %s would leave %s with no replicas", nodeID, ns)
				}
			} else {
				want[idx] = replacement
			}
			key := rng.Start
			if key == nil {
				key = []byte{}
			}
			if err := c.MoveRange(ns, key, want); err != nil {
				return err
			}
		}
	}
	c.dir.MarkDown(nodeID)
	return nil
}

// pickReplacement returns the first serving candidate not already in
// the replica group ("" when none qualifies).
func pickReplacement(current, candidates []string, dir *cluster.Directory) (string, error) {
	in := make(map[string]bool, len(current))
	for _, id := range current {
		in[id] = true
	}
	for _, cand := range candidates {
		if in[cand] {
			continue
		}
		m, ok := dir.Get(cand)
		if !ok || m.Status != cluster.StatusUp {
			continue
		}
		return cand, nil
	}
	return "", nil
}
