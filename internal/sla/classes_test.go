package sla

import (
	"math"
	"testing"
	"time"

	"scads/internal/clock"
)

func TestClassesRollAggregates(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := NewClasses(vc, paperSLA(), 0)
	c.RecordBatch("read", 900, 10*time.Millisecond, true)
	c.RecordBatch("write", 100, 30*time.Millisecond, true)
	vc.Advance(10 * time.Second)
	up := c.Roll()
	if !up.Met {
		t.Fatalf("healthy rollup not met: %+v", up)
	}
	if math.Abs(up.Rate-100) > 0.01 {
		t.Fatalf("total rate = %v, want 100", up.Rate)
	}
	if math.Abs(up.ClassRates["read"]-90) > 0.01 || math.Abs(up.ClassRates["write"]-10) > 0.01 {
		t.Fatalf("class rates = %v", up.ClassRates)
	}
	// Aggregate latency defends the worst class.
	if up.Latency != 30*time.Millisecond {
		t.Fatalf("latency = %v, want worst class 30ms", up.Latency)
	}
	if up.SuccessRate != 100 {
		t.Fatalf("success = %v", up.SuccessRate)
	}
}

func TestClassesOneClassViolationFailsRollUp(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := NewClasses(vc, paperSLA(), 0)
	c.RecordBatch("read", 1000, 10*time.Millisecond, true)
	c.RecordBatch("write", 1000, 250*time.Millisecond, true) // breaches 100ms bound
	vc.Advance(10 * time.Second)
	up := c.Roll()
	if up.Met {
		t.Fatal("rollup met despite write-class violation")
	}
	if !up.ByClass["read"].Met || up.ByClass["write"].Met {
		t.Fatalf("per-class attainment wrong: %+v", up.ByClass)
	}
}

func TestClassesBatchAndSummaries(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := NewClasses(vc, paperSLA(), 0)
	c.RecordBatch("read", 5000, 20*time.Millisecond, true)
	c.RecordBatch("write", 100, 20*time.Millisecond, false)
	vc.Advance(10 * time.Second)
	up := c.Roll()
	if up.SuccessRate >= 100 {
		t.Fatalf("failures not weighted in: %v", up.SuccessRate)
	}
	if r, w := up.ByClass["read"], up.ByClass["write"]; r.Requests != 5000 || w.Failures != 100 {
		t.Fatalf("per-class intervals = %+v", up.ByClass)
	}
}

func TestClassesEmptyRoll(t *testing.T) {
	vc := clock.NewVirtual(t0)
	c := NewClasses(vc, paperSLA(), 0)
	vc.Advance(time.Second)
	up := c.Roll()
	if !up.Met || up.Rate != 0 || up.SuccessRate != 100 {
		t.Fatalf("empty rollup = %+v", up)
	}
}
