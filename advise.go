package scads

import (
	"fmt"

	"scads/internal/advisor"
	"scads/internal/analyzer"
	"scads/internal/mlmodel"
	"scads/internal/planner"
	"scads/internal/query"
)

// Re-exported advisor types: the guidance sheet of §2.2/§3.3.1.
type (
	// AdviceWorkload estimates demand for an advisory run.
	AdviceWorkload = advisor.Workload
	// AdviceConfig parameterises pricing and the capacity model.
	AdviceConfig = advisor.Config
	// AdviceReport is the full pre-deployment guidance.
	AdviceReport = advisor.Report
	// AdvicePricing prices compute and storage.
	AdvicePricing = advisor.Pricing
	// CapacityCurve is one server's latency curve (seconds), which
	// sizing inverts at the SLA bound.
	CapacityCurve = mlmodel.Curve
)

// Advise predicts, for the cluster's installed schema, what the
// estimated workload will cost: per-query latency and maintenance
// bounds, per-index storage and write amplification, cluster sizing
// with a monthly bill, and the expected-downtime-vs-cost curve
// (§3.3.1). The cluster must have a schema installed.
func (c *Cluster) Advise(w AdviceWorkload, cfg AdviceConfig) (*AdviceReport, error) {
	c.mu.RLock()
	schema, results, plans := c.schema, c.analysis, c.plans
	c.mu.RUnlock()
	if schema == nil {
		return nil, ErrNoSchema
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = c.cfg.ReplicationFactor
	}
	return advisor.Advise(schema, results, nil, plans, w, cfg)
}

// AdviseDDL runs the advisor on a scadsQL program without deploying
// it — the paper's pre-deployment flow: the developer submits
// templates, the system reports which are scale-independent, what the
// accepted ones will cost, and why the rest were refused. Unlike
// DefineSchema, rejected queries do not fail the call; they appear in
// the report with their rejection reasons.
func AdviseDDL(ddl string, acfg analyzer.Config, w AdviceWorkload, cfg AdviceConfig) (*AdviceReport, error) {
	schema, err := query.Parse(ddl)
	if err != nil {
		return nil, fmt.Errorf("scads: advise: %w", err)
	}
	results := make(map[string]*analyzer.Result, len(schema.Queries))
	rejects := make(map[string]error)
	for _, name := range schema.QueryOrder {
		res, err := analyzer.AnalyzeQuery(schema, schema.Queries[name], acfg)
		if err != nil {
			rejects[name] = err
			continue
		}
		results[name] = res
	}
	plans, err := planner.Compile(schema, results)
	if err != nil {
		return nil, err
	}
	return advisor.Advise(schema, results, rejects, plans, w, cfg)
}
