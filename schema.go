package scads

import (
	"fmt"

	"scads/internal/analyzer"
	"scads/internal/consistency"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/row"
	"scads/internal/view"
)

// DefineSchema parses a scadsQL program (ENTITY and QUERY statements),
// runs the scale-independence analysis, compiles plans and index
// definitions, and creates the partition maps for every table and
// index namespace across the currently serving nodes.
//
// The entire program is rejected if any query fails analysis — "a
// query that is not a lookup in a pre-computed index will be rejected
// by SCADS" (§3.2).
func (c *Cluster) DefineSchema(ddl string) error {
	schema, err := query.Parse(ddl)
	if err != nil {
		return err
	}
	results, err := analyzer.Analyze(schema, analyzer.Config{})
	if err != nil {
		return fmt.Errorf("scads: schema rejected: %w", err)
	}
	plans, err := planner.Compile(schema, results)
	if err != nil {
		return err
	}

	// One partition map per namespace, each replica group drawn
	// round-robin from the serving nodes.
	up := c.dir.Up()
	if len(up) == 0 {
		return fmt.Errorf("scads: no serving nodes to place namespaces on")
	}
	namespaces := make([]string, 0, len(schema.TableOrder)+len(plans.Indexes))
	tableNS := make(map[string]string, len(schema.TableOrder))
	for _, t := range schema.TableOrder {
		tableNS[t] = planner.TableNamespace(t)
		namespaces = append(namespaces, tableNS[t])
	}
	for _, def := range plans.Indexes {
		namespaces = append(namespaces, def.Namespace)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ns := range namespaces {
		if _, exists := c.router.Map(ns); exists {
			continue
		}
		m, err := partition.NewMap(partition.Spread(i, up, c.cfg.ReplicationFactor))
		if err != nil {
			return err
		}
		c.router.SetMap(ns, m)
	}

	c.schema = schema
	c.tableNS = tableNS
	c.analysis = results
	c.plans = plans
	c.views = view.NewEngine(schema, plans.Indexes, nil)
	c.publishBounds()
	return nil
}

// ApplyConsistency parses the declarative consistency DSL and binds
// each spec to its namespace (which must name a declared entity).
// Merge functions referenced by merge(...) clauses must already be
// registered.
func (c *Cluster) ApplyConsistency(src string) error {
	specs, err := consistency.Parse(src)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.schema == nil {
		return ErrNoSchema
	}
	defer c.publishBounds() // also the specs bound before one is rejected
	for _, spec := range specs {
		if _, ok := c.schema.Tables[spec.Namespace]; !ok {
			return fmt.Errorf("%w: consistency spec names %q", ErrUnknownTable, spec.Namespace)
		}
		if spec.Write == consistency.MergeFunction {
			if _, ok := c.lookupRowMerge(spec.MergeName); !ok {
				if _, err := c.merges.Lookup(spec.MergeName); err != nil {
					return err
				}
			}
		}
		c.specs[spec.Namespace] = spec
	}
	return nil
}

// Specs returns the bound consistency specs by table name.
func (c *Cluster) Specs() map[string]consistency.Spec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]consistency.Spec, len(c.specs))
	for k, v := range c.specs {
		out[k] = v
	}
	return out
}

// Schema returns the parsed schema (nil before DefineSchema).
func (c *Cluster) Schema() *query.Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schema
}

// MaintenanceTable returns the compiled Figure 3 table: which index to
// update when a table's field changes.
func (c *Cluster) MaintenanceTable() []planner.MaintenanceEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.plans == nil {
		return nil
	}
	return append([]planner.MaintenanceEntry(nil), c.plans.Maintenance...)
}

// FormatMaintenanceTable renders the Figure 3 table as text.
func (c *Cluster) FormatMaintenanceTable() string {
	return planner.FormatMaintenanceTable(c.MaintenanceTable())
}

// Plan returns the compiled physical plan for a query (nil if
// unknown).
func (c *Cluster) Plan(queryName string) *planner.Plan {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.plans == nil {
		return nil
	}
	return c.plans.Plans[queryName]
}

// Analysis returns the analyzer's proof object for a query.
func (c *Cluster) Analysis(queryName string) *analyzer.Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.analysis == nil {
		return nil
	}
	return c.analysis[queryName]
}

// SplitTable splits the partition map of a table namespace (and every
// index namespace derived from it) at the encoded primary-key values
// given — a building block for rebalancing and the scale-independence
// experiments. Values are single-column PK prefixes.
func (c *Cluster) SplitTable(table string, values ...any) error {
	c.mu.RLock()
	schema := c.schema
	c.mu.RUnlock()
	if schema == nil {
		return ErrNoSchema
	}
	if _, ok := schema.Tables[table]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	ns := planner.TableNamespace(table)
	m, ok := c.router.Map(ns)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", ns)
	}
	for _, v := range values {
		key, err := row.EncodeKey(row.Row{"_": v}, []string{"_"})
		if err != nil {
			return err
		}
		if err := m.Split(key); err != nil {
			return fmt.Errorf("scads: split %s at %v: %w", table, v, err)
		}
	}
	return nil
}

// AssignRange reassigns the replica group of the range containing the
// encoded value in a table namespace.
func (c *Cluster) AssignRange(table string, value any, replicas []string) error {
	ns := planner.TableNamespace(table)
	m, ok := c.router.Map(ns)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", ns)
	}
	key, err := row.EncodeKey(row.Row{"_": value}, []string{"_"})
	if err != nil {
		return err
	}
	return m.SetReplicas(key, replicas)
}
