// Package advisor implements the cost guidance the paper promises in
// §2.2 and §3.3.1: before a query template is ever deployed, the
// system predicts "the expected cost in terms of storage and
// processing to maintain the index" and shows the developer "expected
// downtime vs. cost" curves so they can choose reasonable consistency
// requirements.
//
// The advisor consumes the same artifacts the execution path uses —
// the analyzer's proof objects (fan-out and update-work bounds), the
// planner's index definitions and maintenance table, and the fitted
// performance models — plus a developer-supplied workload estimate,
// and produces a Report: per-query cost, per-index storage and write
// amplification, a cluster sizing with monthly cost, and the
// durability/availability trade-off curve.
package advisor

import (
	"fmt"
	"math"
	"time"

	"scads/internal/analyzer"
	"scads/internal/mlmodel"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/row"
)

// Workload is the developer's estimate of demand. Rates are steady
// state; the director handles transients.
type Workload struct {
	// QueryRates is expected executions per second per query template.
	QueryRates map[string]float64
	// UpdateRates is expected base-table writes per second per table.
	UpdateRates map[string]float64
	// TableRows is the expected row count per table at the modelled
	// population (e.g. 1e6 users).
	TableRows map[string]int
	// AvgStringBytes sizes string columns in estimates (default 24).
	AvgStringBytes int
}

func (w Workload) withDefaults() Workload {
	if w.AvgStringBytes <= 0 {
		w.AvgStringBytes = 24
	}
	return w
}

// TotalQueryRate sums all query rates.
func (w Workload) TotalQueryRate() float64 {
	var t float64
	for _, r := range w.QueryRates {
		t += r
	}
	return t
}

// TotalUpdateRate sums all base-table update rates.
func (w Workload) TotalUpdateRate() float64 {
	var t float64
	for _, r := range w.UpdateRates {
		t += r
	}
	return t
}

// Pricing describes the utility-computing offer used for $ estimates.
type Pricing struct {
	// PricePerHour per instance (2008 EC2 m1.small: $0.10).
	PricePerHour float64
	// StoragePerGBMonth is the monthly price of one GB of replicated
	// storage (2008 S3/EBS: $0.15).
	StoragePerGBMonth float64
}

func (p Pricing) withDefaults() Pricing {
	if p.PricePerHour <= 0 {
		p.PricePerHour = 0.10
	}
	if p.StoragePerGBMonth <= 0 {
		p.StoragePerGBMonth = 0.15
	}
	return p
}

// Config parameterises an advisory run.
type Config struct {
	// Pricing for $ estimates.
	Pricing Pricing
	// Capacity is the per-server latency curve that predicts latency
	// and sizing: a fitted mlmodel.CapacityModel's once the cluster has
	// run, a closed-form one on day one. Required.
	Capacity mlmodel.Curve
	// SLALatency is the latency bound sizing targets (default 100ms).
	SLALatency time.Duration
	// ReplicationFactor multiplies serving nodes and storage
	// (default 1; the durability curve explores alternatives).
	ReplicationFactor int
}

// sizingHeadroom is the fraction of a server's usable capacity sizing
// keeps free, as the director does.
const sizingHeadroom = 0.2

func (c Config) withDefaults() Config {
	c.Pricing = c.Pricing.withDefaults()
	if c.SLALatency <= 0 {
		c.SLALatency = 100 * time.Millisecond
	}
	if c.ReplicationFactor < 1 {
		c.ReplicationFactor = 1
	}
	return c
}

// IndexAdvice is the predicted cost of maintaining one materialized
// index or join view.
type IndexAdvice struct {
	Name        string
	ServesQuery string
	Aux         bool

	// Entries is the expected number of index entries.
	Entries int
	// EntryBytes is the expected size of one entry (key + stored row).
	EntryBytes int
	// StorageBytes = Entries × EntryBytes (one copy; replication
	// multiplies it).
	StorageBytes int64
	// MaintRatePerSec is the expected index-entry mutations per second
	// caused by base-table writes.
	MaintRatePerSec float64
}

// QueryAdvice is the pre-deployment estimate for one query template —
// the "expected cost ... to maintain the index" of §2.3.
type QueryAdvice struct {
	Query string
	Shape analyzer.Shape

	// Accepted is false when the analyzer rejected the template; the
	// advice then carries only the rejection reason.
	Accepted bool
	Reason   string

	// ServersTouched is the proven worst-case nodes per execution.
	ServersTouched int
	// UpdateWork is the proven O(K) bound on maintenance per write.
	UpdateWork int
	// PredictedLatency is the modelled SLA-percentile latency at the
	// estimated per-server load.
	PredictedLatency time.Duration
	// MeetsSLA reports PredictedLatency ≤ the configured bound.
	MeetsSLA bool
	// Indexes lists the names of structures this query needs.
	Indexes []string
	// StorageBytes is the summed storage of those structures.
	StorageBytes int64
}

// ClusterAdvice is the aggregate sizing and monthly bill.
type ClusterAdvice struct {
	// ReadRate and WriteRate are the workload's foreground rates;
	// MaintenanceRate is the additional asynchronous index-update
	// rate implied by write amplification.
	ReadRate        float64
	WriteRate       float64
	MaintenanceRate float64
	// WriteAmplification = (WriteRate+MaintenanceRate)/WriteRate.
	WriteAmplification float64

	// Servers is the predicted node count (before replication);
	// TotalNodes = Servers × ReplicationFactor.
	Servers           int
	ReplicationFactor int
	TotalNodes        int

	// StorageBytes is total materialized storage for one copy;
	// ReplicatedBytes multiplies by the replication factor.
	StorageBytes    int64
	ReplicatedBytes int64

	// MonthlyComputeUSD, MonthlyStorageUSD and MonthlyTotalUSD are the
	// predicted bill at the modelled workload.
	MonthlyComputeUSD float64
	MonthlyStorageUSD float64
	MonthlyTotalUSD   float64
}

// Report is everything an advisory run produces.
type Report struct {
	Queries []QueryAdvice
	Indexes []IndexAdvice
	Cluster ClusterAdvice
	// Curve is the expected-downtime-vs-cost guidance of §3.3.1.
	Curve []CurvePoint
}

// hoursPerMonth is the billing month used throughout (365.25/12 days).
const hoursPerMonth = 730.5

// Advise produces the full report for a compiled schema under the
// estimated workload. Rejected queries (in rejects) appear in the
// report with their rejection reason, so the developer sees the whole
// picture the paper describes: what will run, what it will cost, and
// what was refused.
func Advise(s *query.Schema, results map[string]*analyzer.Result,
	rejects map[string]error, out *planner.Output, w Workload, cfg Config) (*Report, error) {
	if s == nil || out == nil {
		return nil, fmt.Errorf("advisor: schema and plans are required")
	}
	if cfg.Capacity.Capacity <= 0 {
		return nil, fmt.Errorf("advisor: Config.Capacity is required")
	}
	cfg = cfg.withDefaults()
	w = w.withDefaults()

	rep := &Report{}
	idxAdvice := make(map[string]*IndexAdvice, len(out.Indexes))
	for _, def := range out.Indexes {
		ia := estimateIndex(s, def, w)
		idxAdvice[def.Name] = ia
		rep.Indexes = append(rep.Indexes, *ia)
	}

	// Cluster aggregates drive the latency prediction each query sees.
	var storage int64
	var maintRate float64
	for _, ia := range rep.Indexes {
		storage += ia.StorageBytes
		maintRate += ia.MaintRatePerSec
	}
	// Base-table storage participates too.
	for _, tn := range s.TableOrder {
		t := s.Tables[tn]
		rows := w.TableRows[tn]
		storage += int64(rows) * int64(rowBytes(t, allColumns(t), w))
	}

	readRate := w.TotalQueryRate()
	writeRate := w.TotalUpdateRate()
	totalRate := readRate + writeRate + maintRate
	servers := cfg.Capacity.ServersNeeded(totalRate, cfg.SLALatency.Seconds(), sizingHeadroom, 1)
	perServer := totalRate / float64(servers)

	for _, name := range s.QueryOrder {
		if res, ok := results[name]; ok {
			qa := QueryAdvice{
				Query:          name,
				Shape:          res.Shape,
				Accepted:       true,
				ServersTouched: res.ServersTouched,
				UpdateWork:     res.UpdateWork,
			}
			// A saturated server predicts +Inf: the longest duration.
			qa.PredictedLatency = time.Duration(math.MaxInt64)
			if lat := cfg.Capacity.Latency(perServer); !math.IsInf(lat, 1) {
				qa.PredictedLatency = time.Duration(lat * float64(time.Second))
			}
			qa.MeetsSLA = qa.PredictedLatency <= cfg.SLALatency
			if plan := out.Plans[name]; plan != nil && plan.Index != nil {
				qa.Indexes = append(qa.Indexes, plan.Index.Name)
				if ia := idxAdvice[plan.Index.Name]; ia != nil {
					qa.StorageBytes += ia.StorageBytes
				}
			}
			rep.Queries = append(rep.Queries, qa)
			continue
		}
		qa := QueryAdvice{Query: name, Accepted: false}
		if err, ok := rejects[name]; ok && err != nil {
			qa.Reason = err.Error()
		} else {
			qa.Reason = "rejected by analyzer"
		}
		rep.Queries = append(rep.Queries, qa)
	}

	c := ClusterAdvice{
		ReadRate:          readRate,
		WriteRate:         writeRate,
		MaintenanceRate:   maintRate,
		Servers:           servers,
		ReplicationFactor: cfg.ReplicationFactor,
		TotalNodes:        servers * cfg.ReplicationFactor,
		StorageBytes:      storage,
		ReplicatedBytes:   storage * int64(cfg.ReplicationFactor),
	}
	if writeRate > 0 {
		c.WriteAmplification = (writeRate + maintRate) / writeRate
	} else {
		c.WriteAmplification = 1
	}
	c.MonthlyComputeUSD = float64(c.TotalNodes) * cfg.Pricing.PricePerHour * hoursPerMonth
	c.MonthlyStorageUSD = float64(c.ReplicatedBytes) / (1 << 30) * cfg.Pricing.StoragePerGBMonth
	c.MonthlyTotalUSD = c.MonthlyComputeUSD + c.MonthlyStorageUSD
	rep.Cluster = c

	rep.Curve = DowntimeCostCurve(CurveInput{
		Servers:      servers,
		StorageBytes: storage,
		MaxReplicas:  5,
		Pricing:      cfg.Pricing,
	})
	return rep, nil
}

// estimateIndex predicts entry count, entry size, storage, and
// maintenance rate for one index definition.
func estimateIndex(s *query.Schema, def *planner.IndexDef, w Workload) *IndexAdvice {
	ia := &IndexAdvice{
		Name:        def.Name,
		ServesQuery: def.ServesQuery,
		Aux:         def.Aux,
	}
	driving := s.Tables[def.Driving]
	entries := w.TableRows[def.Driving]
	fan := 1
	if def.Looked != "" && def.LookedFanout > 1 {
		fan = def.LookedFanout
	}
	// A join view holds one entry per (driving row, looked match);
	// full-PK joins (fan=1) hold one entry per driving row.
	ia.Entries = entries * fan
	ia.EntryBytes = entryBytes(s, def, w)
	ia.StorageBytes = int64(ia.Entries) * int64(ia.EntryBytes)

	// Maintenance rate: a driving-table write touches `fan` entries; a
	// looked-table write touches every entry referencing the row —
	// bounded by the driving table's declared cardinality on the join
	// column.
	if r, ok := w.UpdateRates[def.Driving]; ok {
		ia.MaintRatePerSec += r * float64(fan)
	}
	if def.Looked != "" {
		if r, ok := w.UpdateRates[def.Looked]; ok {
			reverse := 1
			if driving != nil {
				if card, ok := driving.Cardinality[def.JoinLeftCol]; ok {
					reverse = card
				}
			}
			// Expected (not worst-case) referencing rows: total driving
			// rows spread over looked rows, capped by the declared bound.
			if looked := w.TableRows[def.Looked]; looked > 0 && entries > 0 {
				avg := int(math.Ceil(float64(entries) / float64(looked)))
				if avg < reverse {
					reverse = avg
				}
			}
			ia.MaintRatePerSec += r * float64(reverse)
		}
	}
	return ia
}

// entryBytes estimates one stored entry: encoded key columns plus the
// stored (projected) row.
func entryBytes(s *query.Schema, def *planner.IndexDef, w Workload) int {
	const keyOverhead = 2  // per-element tag/terminator in keycodec
	const rowOverhead = 12 // row envelope + per-column name bytes

	bytes := rowOverhead
	for _, kc := range def.KeyCols {
		bytes += keyOverhead + columnBytes(s, def, kc.Source, kc.Column, w)
	}
	for _, pc := range def.Project {
		bytes += 4 + columnBytes(s, def, pc.Source, pc.Column, w)
	}
	return bytes
}

// columnBytes sizes one column by its declared type.
func columnBytes(s *query.Schema, def *planner.IndexDef, source, column string, w Workload) int {
	t := tableFor(s, def, source)
	if t == nil {
		return w.AvgStringBytes
	}
	col, ok := t.Column(column)
	if !ok {
		return w.AvgStringBytes
	}
	switch col.Type {
	case row.Int, row.Float, row.Time:
		return 8
	case row.Bool:
		return 1
	default:
		return w.AvgStringBytes
	}
}

// tableFor resolves an effective source name to its table definition.
func tableFor(s *query.Schema, def *planner.IndexDef, source string) *query.TableDef {
	switch source {
	case def.DrivingEff, def.Driving:
		return s.Tables[def.Driving]
	case def.LookedEff:
		if def.Looked != "" {
			return s.Tables[def.Looked]
		}
	}
	if t, ok := s.Tables[source]; ok {
		return t
	}
	return nil
}

// allColumns lists a table's column names.
func allColumns(t *query.TableDef) []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// rowBytes estimates one stored base row.
func rowBytes(t *query.TableDef, cols []string, w Workload) int {
	const rowOverhead = 12
	bytes := rowOverhead
	for _, name := range cols {
		c, ok := t.Column(name)
		if !ok {
			bytes += w.AvgStringBytes
			continue
		}
		switch c.Type {
		case row.Int, row.Float, row.Time:
			bytes += 8 + 4
		case row.Bool:
			bytes += 1 + 4
		default:
			bytes += w.AvgStringBytes + 4
		}
	}
	return bytes
}
