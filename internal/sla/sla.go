// Package sla implements the performance-SLA monitor (paper §3.3.1,
// Figure 4 row 1): it ingests per-request latency and success signals,
// maintains sliding-window percentile estimates, and rolls up fixed
// intervals into observations the director consumes. An SLA like
// "99.9% of requests succeed in <100ms, 99.99% success" is checked
// continuously; violations are counted and exposed as the feedback
// signal of the Figure 2 loop.
package sla

import (
	"fmt"
	"math"
	"sync"
	"time"

	"scads/internal/clock"
	"scads/internal/consistency"
	"scads/internal/mlmodel"
)

// Monitor tracks one SLA over a stream of requests. Safe for
// concurrent use.
type Monitor struct {
	clk  clock.Clock
	spec consistency.PerformanceSLA

	mu            sync.Mutex
	window        *mlmodel.WindowQuantile
	intervalStart time.Time
	reqs          int64
	fails         int64

	totalReqs         int64
	totalFails        int64
	intervals         int64
	violatedIntervals int64
}

// Interval is one rolled-up observation window.
type Interval struct {
	Start, End time.Time
	Requests   int64
	Failures   int64
	// Rate is requests per second over the interval.
	Rate float64
	// Latency is the SLA-percentile latency over the sample window.
	Latency time.Duration
	// SuccessRate is the percentage of successful requests.
	SuccessRate float64
	// Met reports whether both the latency and availability targets
	// held.
	Met bool
}

// String renders the interval for logs.
func (iv Interval) String() string {
	status := "OK"
	if !iv.Met {
		status = "VIOLATION"
	}
	return fmt.Sprintf("[%s] rate=%.1f/s p-lat=%s success=%.3f%% %s",
		iv.End.Format("15:04:05"), iv.Rate, iv.Latency, iv.SuccessRate, status)
}

// NewMonitor returns a monitor for the given SLA. windowSize bounds
// the latency sample window (default 4096).
func NewMonitor(clk clock.Clock, spec consistency.PerformanceSLA, windowSize int) *Monitor {
	if windowSize <= 0 {
		windowSize = 4096
	}
	return &Monitor{
		clk:           clk,
		spec:          spec,
		window:        mlmodel.NewWindow(windowSize),
		intervalStart: clk.Now(),
	}
}

// Record ingests one request outcome.
func (m *Monitor) Record(latency time.Duration, success bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reqs++
	m.totalReqs++
	if !success {
		m.fails++
		m.totalFails++
		return
	}
	m.window.Add(latency.Seconds())
}

// RecordBatch ingests n requests sharing one latency/outcome — used by
// the simulator, where one tick aggregates thousands of requests.
func (m *Monitor) RecordBatch(n int64, latency time.Duration, success bool) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reqs += n
	m.totalReqs += n
	if !success {
		m.fails += n
		m.totalFails += n
		return
	}
	// Feed a bounded number of samples so huge batches don't flush
	// the window.
	samples := n
	if samples > 64 {
		samples = 64
	}
	for i := int64(0); i < samples; i++ {
		m.window.Add(latency.Seconds())
	}
}

// Roll closes the current interval, returning its summary and starting
// the next one.
func (m *Monitor) Roll() Interval {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	iv := Interval{
		Start:    m.intervalStart,
		End:      now,
		Requests: m.reqs,
		Failures: m.fails,
	}
	if secs := now.Sub(m.intervalStart).Seconds(); secs > 0 {
		iv.Rate = float64(iv.Requests) / secs
	}
	q := m.spec.Percentile / 100
	if q <= 0 {
		q = 0.999
	}
	lat := m.window.Quantile(q)
	if !math.IsNaN(lat) {
		iv.Latency = time.Duration(lat * float64(time.Second))
	}
	if iv.Requests > 0 {
		iv.SuccessRate = 100 * float64(iv.Requests-iv.Failures) / float64(iv.Requests)
	} else {
		iv.SuccessRate = 100
	}
	iv.Met = m.metLocked(iv)

	m.intervals++
	if !iv.Met {
		m.violatedIntervals++
	}
	m.reqs, m.fails = 0, 0
	m.intervalStart = now
	return iv
}

func (m *Monitor) metLocked(iv Interval) bool {
	if m.spec.LatencyBound > 0 && iv.Requests > 0 && iv.Latency > m.spec.LatencyBound {
		return false
	}
	if m.spec.SuccessRate > 0 && iv.SuccessRate < m.spec.SuccessRate {
		return false
	}
	return true
}

// Summary aggregates lifetime statistics.
type Summary struct {
	TotalRequests     int64
	TotalFailures     int64
	Intervals         int64
	ViolatedIntervals int64
}

// Summary returns lifetime statistics.
func (m *Monitor) Summary() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Summary{
		TotalRequests:     m.totalReqs,
		TotalFailures:     m.totalFails,
		Intervals:         m.intervals,
		ViolatedIntervals: m.violatedIntervals,
	}
}
