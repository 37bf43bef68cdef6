package advisor

import (
	"math"
	"time"

	"scads/internal/consistency"
)

// CurveInput parameterises the downtime-vs-cost exploration of §3.3.1:
// "The results of these predictions can be shown to the user in the
// form of expected downtime vs. cost for implementing a policy to help
// them develop reasonable requirements."
type CurveInput struct {
	// Servers is the base (unreplicated) node count the capacity model
	// chose; each extra replica multiplies it.
	Servers int
	// StorageBytes is one copy of all materialized data.
	StorageBytes int64
	// MaxReplicas bounds the exploration (default 5).
	MaxReplicas int
	// Pricing prices each point.
	Pricing Pricing
	// NodeMTBF and NodeMTTR describe individual node failures. A node
	// is down MTTR/(MTBF+MTTR) of the time; data is unavailable when
	// all replicas of a range are down simultaneously. Defaults 30
	// days / 10 minutes: commodity-node failure rates with automated
	// replacement.
	NodeMTBF time.Duration
	NodeMTTR time.Duration
}

// CurvePoint is one (policy, downtime, cost) choice shown to the
// developer.
type CurvePoint struct {
	// Replicas is the policy: replication factor for every range.
	Replicas int
	// Availability is the predicted fraction of time data is
	// reachable, e.g. 0.99999.
	Availability float64
	// DowntimeMinutesPerMonth is the same prediction in operator
	// units.
	DowntimeMinutesPerMonth float64
	// Durability is the probability a committed write survives a
	// repair window (all-replica loss is the only loss mode).
	Durability float64
	// MonthlyUSD is compute + storage at this replication factor.
	MonthlyUSD float64
}

// DowntimeCostCurve predicts availability, durability and monthly cost
// for replication factors 1..MaxReplicas. The developer (or the
// consistency DSL's durability clause) picks the first point meeting
// their requirement; the director later enforces it.
func DowntimeCostCurve(in CurveInput) []CurvePoint {
	if in.Servers < 1 {
		in.Servers = 1
	}
	if in.MaxReplicas < 1 {
		in.MaxReplicas = 5
	}
	in.Pricing = in.Pricing.withDefaults()
	if in.NodeMTBF <= 0 {
		in.NodeMTBF = 30 * 24 * time.Hour
	}
	if in.NodeMTTR <= 0 {
		in.NodeMTTR = 10 * time.Minute
	}

	// Steady-state probability one node is down.
	u := in.NodeMTTR.Seconds() / (in.NodeMTBF.Seconds() + in.NodeMTTR.Seconds())
	// Probability a node fails at some point within one repair window
	// (the durability loss mode: all replicas fail before re-repair).
	pFailWindow := 1 - math.Exp(-in.NodeMTTR.Seconds()/in.NodeMTBF.Seconds())

	const minutesPerMonth = hoursPerMonth * 60
	out := make([]CurvePoint, 0, in.MaxReplicas)
	for r := 1; r <= in.MaxReplicas; r++ {
		unavailable := math.Pow(u, float64(r))
		p := CurvePoint{
			Replicas:                r,
			Availability:            1 - unavailable,
			DowntimeMinutesPerMonth: unavailable * minutesPerMonth,
			Durability:              consistency.SurvivalProbability(pFailWindow, r),
		}
		nodes := in.Servers * r
		p.MonthlyUSD = float64(nodes)*in.Pricing.PricePerHour*hoursPerMonth +
			float64(in.StorageBytes)*float64(r)/(1<<30)*in.Pricing.StoragePerGBMonth
		out = append(out, p)
	}
	return out
}

// PickReplicas returns the cheapest curve point meeting both targets
// (zero target = unconstrained). The bool is false when no explored
// point satisfies them — the developer's requirement is infeasible at
// the modelled failure rates, which the paper says the system should
// surface rather than silently accept.
func PickReplicas(curve []CurvePoint, availabilityTarget, durabilityTarget float64) (CurvePoint, bool) {
	for _, p := range curve { // curve is ordered by cost (replicas ascending)
		if p.Availability >= availabilityTarget && p.Durability >= durabilityTarget {
			return p, true
		}
	}
	return CurvePoint{}, false
}
