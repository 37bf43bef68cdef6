package sla

import (
	"strings"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/consistency"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func paperSLA() consistency.PerformanceSLA {
	// "99.9% of requests succeed in <100ms", "99.99% of requests must
	// succeed" — the paper's running example.
	return consistency.PerformanceSLA{Percentile: 99.9, LatencyBound: 100 * time.Millisecond, SuccessRate: 99.99}
}

func TestIntervalMet(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	for i := 0; i < 1000; i++ {
		m.Record(10*time.Millisecond, true)
	}
	vc.Advance(10 * time.Second)
	iv := m.Roll()
	if !iv.Met {
		t.Fatalf("healthy interval not met: %+v", iv)
	}
	if iv.Rate != 100 {
		t.Fatalf("Rate = %v, want 100/s", iv.Rate)
	}
	if iv.SuccessRate != 100 {
		t.Fatalf("SuccessRate = %v", iv.SuccessRate)
	}
	if iv.Latency != 10*time.Millisecond {
		t.Fatalf("Latency = %v", iv.Latency)
	}
}

func TestLatencyViolation(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	// 0.5% of requests at 500ms: p99.9 exceeds the bound.
	for i := 0; i < 1000; i++ {
		lat := 10 * time.Millisecond
		if i%200 == 0 {
			lat = 500 * time.Millisecond
		}
		m.Record(lat, true)
	}
	vc.Advance(time.Second)
	iv := m.Roll()
	if iv.Met {
		t.Fatalf("tail violation not detected: %+v", iv)
	}
	if !strings.Contains(iv.String(), "VIOLATION") {
		t.Fatalf("String() = %q", iv.String())
	}
}

func TestAvailabilityViolation(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	for i := 0; i < 999; i++ {
		m.Record(time.Millisecond, true)
	}
	m.Record(0, false) // 0.1% failures < 99.99% success target
	vc.Advance(time.Second)
	iv := m.Roll()
	if iv.Met {
		t.Fatalf("availability violation not detected: %+v", iv)
	}
}

func TestEmptyIntervalMeets(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	vc.Advance(time.Second)
	iv := m.Roll()
	if !iv.Met || iv.SuccessRate != 100 {
		t.Fatalf("empty interval = %+v", iv)
	}
}

func TestRollResetsCounters(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	m.Record(time.Millisecond, true)
	vc.Advance(time.Second)
	first := m.Roll()
	vc.Advance(time.Second)
	second := m.Roll()
	if first.Requests != 1 || second.Requests != 0 {
		t.Fatalf("requests = %d then %d", first.Requests, second.Requests)
	}
	if !second.Start.Equal(first.End) {
		t.Fatal("intervals not contiguous")
	}
}

func TestRecordBatch(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	m.RecordBatch(5000, 20*time.Millisecond, true)
	m.RecordBatch(1, 0, false)
	m.RecordBatch(0, 0, true)  // no-op
	m.RecordBatch(-5, 0, true) // no-op
	vc.Advance(time.Second)
	iv := m.Roll()
	if iv.Requests != 5001 || iv.Failures != 1 {
		t.Fatalf("batch counts = %d/%d", iv.Requests, iv.Failures)
	}
}

func TestSummaryViolationRate(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, paperSLA(), 0)
	// Interval 1: healthy.
	m.Record(time.Millisecond, true)
	vc.Advance(time.Second)
	m.Roll()
	// Interval 2: violated (all slow).
	for i := 0; i < 100; i++ {
		m.Record(time.Second, true)
	}
	vc.Advance(time.Second)
	m.Roll()
	s := m.Summary()
	if s.Intervals != 2 || s.ViolatedIntervals != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestDefaultPercentileWhenUnset(t *testing.T) {
	vc := clock.NewVirtual(t0)
	m := NewMonitor(vc, consistency.PerformanceSLA{LatencyBound: 50 * time.Millisecond}, 0)
	for i := 0; i < 100; i++ {
		m.Record(10*time.Millisecond, true)
	}
	vc.Advance(time.Second)
	if iv := m.Roll(); !iv.Met || iv.Latency == 0 {
		t.Fatalf("interval = %+v", iv)
	}
}
