// Package balancer turns observed per-range load into rebalancing
// plans — the partitioning half of §3.3.1's "performance and failure
// models combined with current workload information will be used to
// automatically configure system parameters such as partitioning and
// replication". The coordinator tracks where requests actually land
// (Tracker); the planner (Plan) proposes range splits for hot spots
// and range moves from overloaded to underloaded nodes; the
// coordinator executes the plan with its MoveRange/Split primitives.
package balancer

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// RangeLoad is the observed demand on one partition range.
type RangeLoad struct {
	Namespace string
	// Start identifies the range (its inclusive lower bound; nil for
	// the first range).
	Start []byte
	// Replicas currently serving the range; Replicas[0] is the
	// primary.
	Replicas []string
	// Ops is the observed request count over the tracking window.
	Ops float64
	// SplitKey is a candidate key strictly inside the range (the
	// tracker's median sample); nil when the range cannot be split.
	SplitKey []byte
}

// ActionKind discriminates plan actions.
type ActionKind int

// Plan actions.
const (
	// ActionSplit divides a hot range at Action.At so its halves can
	// be placed independently.
	ActionSplit ActionKind = iota
	// ActionMove reassigns a range to Action.Target.
	ActionMove
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActionSplit:
		return "split"
	case ActionMove:
		return "move"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Action is one step of a rebalancing plan.
type Action struct {
	Kind      ActionKind
	Namespace string
	// Start identifies the affected range.
	Start []byte
	// At is the split point (ActionSplit).
	At []byte
	// Target is the new replica group (ActionMove).
	Target []string
	// Reason explains the step for operator logs.
	Reason string
}

// String renders the action.
func (a Action) String() string {
	switch a.Kind {
	case ActionSplit:
		return fmt.Sprintf("split %s[%q] at %q (%s)", a.Namespace, a.Start, a.At, a.Reason)
	default:
		return fmt.Sprintf("move %s[%q] -> %v (%s)", a.Namespace, a.Start, a.Target, a.Reason)
	}
}

// Config tunes the planner.
type Config struct {
	// SplitFraction proposes splitting any single range carrying more
	// than this fraction of the mean node load (default 0.5) — a range
	// that hot cannot be balanced by moving it whole.
	SplitFraction float64
}

const (
	// imbalanceRatio triggers moves when the most loaded node exceeds
	// the mean node load by this factor.
	imbalanceRatio = 1.5
	// maxMoves bounds moves per plan so rebalancing is incremental.
	maxMoves = 4
	// minOps is the total-operation floor below which no plan is made:
	// an idle window carries no signal.
	minOps = 100
)

// Plan proposes rebalancing actions for the observed loads across the
// serving nodes. It is deterministic: identical inputs produce the
// identical plan. Splits are proposed first (they unlock finer moves
// on the next round); moves then shift whole ranges from the most
// loaded node to the least loaded until the imbalance ratio is met or
// maxMoves is exhausted.
func Plan(loads []RangeLoad, nodes []string, cfg Config) []Action {
	if cfg.SplitFraction <= 0 {
		cfg.SplitFraction = 0.5
	}
	if len(nodes) < 2 {
		return nil
	}
	var total float64
	for _, rl := range loads {
		total += rl.Ops
	}
	if total < minOps {
		return nil
	}
	mean := total / float64(len(nodes))

	// Deterministic order regardless of caller's map iteration.
	loads = append([]RangeLoad(nil), loads...)
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Namespace != loads[j].Namespace {
			return loads[i].Namespace < loads[j].Namespace
		}
		return bytes.Compare(loads[i].Start, loads[j].Start) < 0
	})

	var plan []Action

	// 1. Split ranges too hot to balance by moving.
	for _, rl := range loads {
		if rl.Ops > cfg.SplitFraction*mean && rl.SplitKey != nil {
			plan = append(plan, Action{
				Kind: ActionSplit, Namespace: rl.Namespace,
				Start: rl.Start, At: rl.SplitKey,
				Reason: fmt.Sprintf("range carries %.0f ops > %.0f (%.0f%% of mean node load)",
					rl.Ops, cfg.SplitFraction*mean, 100*cfg.SplitFraction),
			})
		}
	}

	// 2. Move ranges off overloaded nodes. Load is attributed to the
	// primary: writes land there and reads rotate, so the primary is
	// the capacity bottleneck under skew.
	nodeLoad := make(map[string]float64, len(nodes))
	for _, n := range nodes {
		nodeLoad[n] = 0
	}
	byPrimary := make(map[string][]int)
	for i, rl := range loads {
		if len(rl.Replicas) == 0 {
			continue
		}
		p := rl.Replicas[0]
		if _, serving := nodeLoad[p]; !serving {
			// Primary not in the serving set (e.g. being
			// decommissioned): every range it holds is a move candidate
			// charged to a virtual overloaded node.
			nodeLoad[p] = 0
		}
		nodeLoad[p] += rl.Ops
		byPrimary[p] = append(byPrimary[p], i)
	}

	moved := make(map[int]bool)
	for moves := 0; moves < maxMoves; moves++ {
		hot, cold := extremes(nodeLoad, nodes)
		if hot == "" || cold == "" || hot == cold {
			break
		}
		if nodeLoad[hot] <= imbalanceRatio*mean {
			break
		}
		// Hottest unmoved range on the hot node whose transfer helps.
		best, bestOps := -1, 0.0
		for _, i := range byPrimary[hot] {
			if moved[i] {
				continue
			}
			ops := loads[i].Ops
			// Don't overshoot: moving the range must not make the cold
			// node hotter than the hot node was.
			if nodeLoad[cold]+ops >= nodeLoad[hot] {
				continue
			}
			if ops > bestOps {
				best, bestOps = i, ops
			}
		}
		if best < 0 {
			break
		}
		rl := loads[best]
		target := retarget(rl.Replicas, hot, cold)
		plan = append(plan, Action{
			Kind: ActionMove, Namespace: rl.Namespace,
			Start: rl.Start, Target: target,
			Reason: fmt.Sprintf("node %s at %.0f ops > %.1fx mean %.0f; %s at %.0f",
				hot, nodeLoad[hot], imbalanceRatio, mean, cold, nodeLoad[cold]),
		})
		moved[best] = true
		nodeLoad[hot] -= rl.Ops
		nodeLoad[cold] += rl.Ops
	}
	return plan
}

// extremes returns the most and least loaded serving nodes
// (deterministic: ties break on node ID).
func extremes(load map[string]float64, nodes []string) (hot, cold string) {
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for _, n := range sorted {
		if hot == "" || load[n] > load[hot] {
			hot = n
		}
		if cold == "" || load[n] < load[cold] {
			cold = n
		}
	}
	// A non-serving primary (decommission case) outranks any serving
	// node as the move source.
	var extra []string
	for n := range load {
		if _, ok := slices.BinarySearch(sorted, n); !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		if load[n] > 0 {
			hot = n
			break
		}
	}
	return hot, cold
}

// retarget shifts a range's load from one node to another while
// preserving the replication factor. If the target is already a
// secondary the two swap roles (the cheapest move: the secondary
// already holds the data); otherwise the target replaces the source in
// place. When the source is not in the group at all, the target takes
// over as primary.
func retarget(replicas []string, from, to string) []string {
	out := append([]string(nil), replicas...)
	fi, ti := -1, -1
	for i, id := range out {
		if id == from {
			fi = i
		}
		if id == to {
			ti = i
		}
	}
	switch {
	case fi >= 0 && ti >= 0:
		out[fi], out[ti] = out[ti], out[fi]
	case fi >= 0:
		out[fi] = to
	case ti >= 0:
		out[0], out[ti] = out[ti], out[0]
	default:
		out = append([]string{to}, out[1:]...)
	}
	return out
}
