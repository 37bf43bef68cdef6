package scads

import (
	"fmt"
	"slices"

	"scads/internal/consistency"
	"scads/internal/partition"
	"scads/internal/planner"
)

// DurabilityPlan reports, for one namespace, what its declared
// durability SLA requires given the failure model.
type DurabilityPlan struct {
	Table            string
	Target           float64 // declared survival probability
	NodeFailureProb  float64 // per repair window
	RequiredReplicas int
	CurrentReplicas  int // minimum across the namespace's ranges
}

// Satisfied reports whether the current replication meets the target.
func (p DurabilityPlan) Satisfied() bool {
	return p.CurrentReplicas >= p.RequiredReplicas
}

// PlanDurability evaluates every namespace with a declared durability
// SLA (Figure 4 row 5) against a node-failure probability per repair
// window, returning what each needs. This is the calculation the paper
// describes: "durability may require persisting a write to multiple
// machines"; the failure model supplies pFail, the spec supplies the
// target, and the system derives the replication factor.
func (c *Cluster) PlanDurability(pFailPerWindow float64) ([]DurabilityPlan, error) {
	c.mu.RLock()
	specs := make([]consistency.Spec, 0, len(c.specs))
	for _, s := range c.specs {
		specs = append(specs, s)
	}
	c.mu.RUnlock()
	consistency.SortSpecs(specs)

	var plans []DurabilityPlan
	for _, spec := range specs {
		if spec.Durability <= 0 {
			continue
		}
		need, err := consistency.RequiredReplicas(pFailPerWindow, spec.Durability)
		if err != nil {
			return nil, err
		}
		ns := planner.TableNamespace(spec.Namespace)
		m, ok := c.router.Map(ns)
		if !ok {
			return nil, fmt.Errorf("scads: durability spec for %q but no partition map", spec.Namespace)
		}
		cur := -1
		for _, rng := range m.Ranges() {
			if cur < 0 || len(rng.Replicas) < cur {
				cur = len(rng.Replicas)
			}
		}
		plans = append(plans, DurabilityPlan{
			Table:            spec.Namespace,
			Target:           spec.Durability,
			NodeFailureProb:  pFailPerWindow,
			RequiredReplicas: need,
			CurrentReplicas:  cur,
		})
	}
	return plans, nil
}

// EnforceDurability raises the replication factor of every
// under-replicated namespace (per PlanDurability) by copying each
// deficient range onto the least-loaded serving nodes outside its
// group (Router.Spares). Returns the plans after enforcement.
func (c *Cluster) EnforceDurability(pFailPerWindow float64) ([]DurabilityPlan, error) {
	plans, err := c.PlanDurability(pFailPerWindow)
	if err != nil {
		return nil, err
	}
	up := c.dir.Up()
	for i, plan := range plans {
		if plan.Satisfied() {
			continue
		}
		err := c.reconfigure(planner.TableNamespace(plan.Table), func(_ int, rng partition.Range) ([]string, error) {
			deficit := plan.RequiredReplicas - len(rng.Replicas)
			if deficit <= 0 {
				return rng.Replicas, nil
			}
			adds := c.router.Spares(up, rng.Replicas)
			if len(adds) < deficit {
				return nil, fmt.Errorf("scads: durability for %q needs %d replicas but only %d nodes are serving",
					plan.Table, plan.RequiredReplicas, len(up))
			}
			return append(slices.Clone(rng.Replicas), adds[:deficit]...), nil
		})
		if err != nil {
			return plans, err
		}
		plans[i].CurrentReplicas = plan.RequiredReplicas
	}
	return plans, nil
}
