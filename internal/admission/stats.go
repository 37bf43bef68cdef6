package admission

import (
	"fmt"
	"sort"
	"strings"
)

// TenantStats is one tenant's admission counters.
type TenantStats struct {
	Tenant   string
	Priority Priority

	// Admitted counts operations (by cost) let through; ShedQuota and
	// ShedOverload count rejections by cause.
	Admitted     uint64
	ShedQuota    uint64
	ShedOverload uint64

	// ScanBytes is the total scan result bytes debited post-paid.
	ScanBytes int64

	// Rate is the tenant's demand in ops/sec over the last completed
	// hot-detection window (admit attempts, shed or not).
	Rate float64
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	InFlight     int
	PeakInFlight int
	MaxInFlight  int

	Admitted  uint64
	ShedQuota uint64
	// ShedByClass counts overload sheds per shed class (index =
	// ShedClass; class 0 = committed writes, shed last).
	ShedByClass [NumShedClasses]uint64

	// Tenants is sorted by tenant name.
	Tenants []TenantStats
}

// ShedOverload is the total overload sheds across classes.
func (s Stats) ShedOverload() uint64 {
	var n uint64
	for _, v := range s.ShedByClass {
		n += v
	}
	return n
}

// Stats snapshots the controller. Deterministic: tenants are sorted
// by name.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		InFlight:     c.inFlight,
		PeakInFlight: c.peak,
		MaxInFlight:  c.maxInFlight,
		Admitted:     c.admitted,
		ShedQuota:    c.shedQuota,
		ShedByClass:  c.shedByClass,
	}
	names := make([]string, 0, len(c.tenants))
	for name := range c.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.tenants[name]
		s.Tenants = append(s.Tenants, TenantStats{
			Tenant:       name,
			Priority:     t.cfg.Priority,
			Admitted:     t.admitted,
			ShedQuota:    t.shedQuota,
			ShedOverload: t.shedOverload,
			ScanBytes:    t.debitedBytes,
			Rate:         t.rate,
		})
	}
	return s
}

// TenantDemand is one hot tenant's windowed demand rate.
type TenantDemand struct {
	Tenant string
	Rate   float64 // ops/sec over the last completed window
}

// HotTenants returns tenants whose windowed demand reaches hotFactor
// × the mean demand across the *other* active tenants, sorted by rate
// descending (ties by name). Excluding the candidate from the mean
// matters: against a self-inclusive mean a single dominant tenant can
// never exceed 2× with two tenants, so true skew would be invisible.
// The balancer polls this so sustained skew triggers rebalancing
// instead of permanent shedding. Requires at least two active tenants
// — a lone tenant is the workload, not a hot spot.
func (c *Controller) HotTenants() []TenantDemand {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.tenants))
	for name := range c.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	active := 0
	for _, name := range names {
		t := c.tenants[name]
		// Roll windows forward so a tenant that went silent decays.
		t.observe(now, 0)
		if t.rate > 0 {
			sum += t.rate
			active++
		}
	}
	if active < 2 {
		return nil
	}
	var hot []TenantDemand
	for _, name := range names {
		t := c.tenants[name]
		if t.rate <= 0 {
			continue
		}
		othersMean := (sum - t.rate) / float64(active-1)
		if t.rate >= hotFactor*othersMean {
			hot = append(hot, TenantDemand{Tenant: name, Rate: t.rate})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Rate != hot[j].Rate {
			return hot[i].Rate > hot[j].Rate
		}
		return hot[i].Tenant < hot[j].Tenant
	})
	return hot
}

// Describe renders the snapshot as operator-readable lines (the
// scads-ctl tenants payload).
func (s Stats) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "admission: in-flight %d (peak %d, max %d), admitted %d, quota sheds %d, overload sheds %d\n",
		s.InFlight, s.PeakInFlight, s.MaxInFlight, s.Admitted, s.ShedQuota, s.ShedOverload())
	for class := NumShedClasses - 1; class >= 0; class-- {
		if s.ShedByClass[class] > 0 {
			fmt.Fprintf(&b, "  shed[%s]: %d\n", ClassNames[class], s.ShedByClass[class])
		}
	}
	for _, t := range s.Tenants {
		name := t.Tenant
		if name == "" {
			name = "(default)"
		}
		fmt.Fprintf(&b, "  tenant %s [%s]: admitted %d, quota-shed %d, overload-shed %d, scan-bytes %d, rate %.1f/s\n",
			name, t.Priority, t.Admitted, t.ShedQuota, t.ShedOverload, t.ScanBytes, t.Rate)
	}
	return b.String()
}
