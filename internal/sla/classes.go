package sla

import (
	"sort"
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/consistency"
)

// Classes tracks SLO attainment per request class (view-profile,
// update-profile, …) — the per-query granularity of §3.3.1, where each
// query carries its own performance requirement. One Monitor per class
// ingests that class's requests; Roll closes the interval across all
// classes at once and reports both the per-class intervals and the
// aggregate the director consumes: total rate, the worst class's
// latency (the loop defends the weakest query, not the average), and
// whether every class met its bound.
type Classes struct {
	clk    clock.Clock
	spec   consistency.PerformanceSLA
	window int

	mu       sync.Mutex
	monitors map[string]*Monitor
}

// RollUp is one interval rolled across all classes.
type RollUp struct {
	Start, End time.Time
	// ByClass holds each class's interval.
	ByClass map[string]Interval
	// ClassRates is each class's request rate (req/s) — the mix signal
	// the fleet model consumes.
	ClassRates map[string]float64
	// Rate is the total request rate.
	Rate float64
	// Latency is the worst class's SLA-percentile latency.
	Latency time.Duration
	// SuccessRate is the request-weighted success percentage.
	SuccessRate float64
	// Met reports whether every class met its SLA.
	Met bool
}

// NewClasses returns a per-class tracker holding every class to spec.
// windowSize bounds each class's latency sample window (default 4096).
func NewClasses(clk clock.Clock, spec consistency.PerformanceSLA, windowSize int) *Classes {
	return &Classes{
		clk:      clk,
		spec:     spec,
		window:   windowSize,
		monitors: make(map[string]*Monitor),
	}
}

func (c *Classes) monitor(class string) *Monitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.monitors[class]
	if !ok {
		m = NewMonitor(c.clk, c.spec, c.window)
		c.monitors[class] = m
	}
	return m
}

// RecordBatch ingests n requests of one class sharing a latency and
// outcome (the simulator path).
func (c *Classes) RecordBatch(class string, n int64, latency time.Duration, success bool) {
	c.monitor(class).RecordBatch(n, latency, success)
}

// Roll closes the current interval on every class and aggregates.
func (c *Classes) Roll() RollUp {
	c.mu.Lock()
	monitors := make(map[string]*Monitor, len(c.monitors))
	for class, m := range c.monitors {
		monitors[class] = m
	}
	c.mu.Unlock()

	up := RollUp{
		End:        c.clk.Now(),
		ByClass:    make(map[string]Interval, len(monitors)),
		ClassRates: make(map[string]float64, len(monitors)),
		Met:        true,
	}
	up.Start = up.End
	// Roll classes in sorted order: Rate accumulates float64s, and
	// summing in map-iteration order would make its low bits
	// run-dependent — the rollup feeds e16's bit-identical metrics.
	classes := make([]string, 0, len(monitors))
	for class := range monitors {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	var reqs, fails int64
	for _, class := range classes {
		m := monitors[class]
		iv := m.Roll()
		up.ByClass[class] = iv
		up.ClassRates[class] = iv.Rate
		up.Rate += iv.Rate
		if iv.Start.Before(up.Start) {
			up.Start = iv.Start
		}
		if iv.Latency > up.Latency {
			up.Latency = iv.Latency
		}
		if !iv.Met {
			up.Met = false
		}
		reqs += iv.Requests
		fails += iv.Failures
	}
	if reqs > 0 {
		up.SuccessRate = 100 * float64(reqs-fails) / float64(reqs)
	} else {
		up.SuccessRate = 100
	}
	return up
}
