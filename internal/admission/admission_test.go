package admission

import (
	"strings"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/rpc"
)

func newTestController(t *testing.T, cfg Config) (*Controller, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1_000_000, 0))
	cfg.Clock = clk
	return New(cfg), clk
}

func mustAdmit(t *testing.T, c *Controller, tenant string, op Op, cost float64) func() {
	t.Helper()
	release, err := c.Admit(tenant, op, cost)
	if err != nil {
		t.Fatalf("Admit(%q, %v, %v): unexpected rejection: %v", tenant, op, cost, err)
	}
	return release
}

func mustReject(t *testing.T, c *Controller, tenant string, op Op, cost float64) error {
	t.Helper()
	release, err := c.Admit(tenant, op, cost)
	if err == nil {
		release()
		t.Fatalf("Admit(%q, %v, %v): expected rejection", tenant, op, cost)
	}
	if !rpc.IsOverloaded(err) {
		t.Fatalf("rejection not classified as overloaded: %v", err)
	}
	return err
}

// TestQuotaRefillBoundary pins the token-bucket refill math to exact
// virtual-clock boundaries: 10 ops/sec with burst 10 refills one
// token per 100ms, not a microsecond earlier.
func TestQuotaRefillBoundary(t *testing.T) {
	c, clk := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"a": {OpsPerSec: 10, Burst: 10},
		},
	})
	for i := 0; i < 10; i++ {
		mustAdmit(t, c, "a", OpWrite, 1)()
	}
	err := mustReject(t, c, "a", OpWrite, 1)
	if got := rpc.RetryAfter(err); got != 100*time.Millisecond {
		t.Fatalf("retry-after at empty bucket = %v, want 100ms", got)
	}
	clk.Advance(99 * time.Millisecond)
	mustReject(t, c, "a", OpWrite, 1)
	clk.Advance(time.Millisecond) // exactly one full token now
	mustAdmit(t, c, "a", OpWrite, 1)()
	mustReject(t, c, "a", OpWrite, 1)

	// Burst cap: a long idle period refills to burst, never beyond.
	clk.Advance(time.Hour)
	for i := 0; i < 10; i++ {
		mustAdmit(t, c, "a", OpWrite, 1)()
	}
	mustReject(t, c, "a", OpWrite, 1)
}

// TestQuotaIsolation: one tenant exhausting its bucket never touches
// another tenant's tokens, and unconfigured tenants are unlimited.
func TestQuotaIsolation(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"noisy": {OpsPerSec: 5},
			"quiet": {OpsPerSec: 5},
		},
	})
	for i := 0; i < 5; i++ {
		mustAdmit(t, c, "noisy", OpWrite, 1)()
	}
	mustReject(t, c, "noisy", OpWrite, 1)
	for i := 0; i < 5; i++ {
		mustAdmit(t, c, "quiet", OpWrite, 1)()
	}
	for i := 0; i < 100; i++ {
		mustAdmit(t, c, "unconfigured", OpRead, 1)()
	}
	st := c.Stats()
	if st.ShedQuota != 1 {
		t.Fatalf("quota sheds = %d, want 1 (noisy only)", st.ShedQuota)
	}
}

// TestScanBytePostPaidDebit: scans admit while the byte bucket is
// positive, and an overdraw blocks the next scan until refill.
func TestScanBytePostPaidDebit(t *testing.T) {
	c, clk := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"a": {ScanBytesPerSec: 1000},
		},
	})
	mustAdmit(t, c, "a", OpScan, 1)()
	c.DebitScanBytes("a", 4000) // post-paid overdraw: balance -3000
	err := mustReject(t, c, "a", OpScan, 1)
	// The hint is the time until the bucket holds one full token:
	// 3001 units of deficit at 1000/s.
	if got := rpc.RetryAfter(err); got != 3001*time.Millisecond {
		t.Fatalf("retry-after for -3000 at 1000/s = %v, want 3.001s", got)
	}
	clk.Advance(3 * time.Second)
	mustReject(t, c, "a", OpScan, 1) // exactly zero is still not positive
	clk.Advance(time.Millisecond)
	mustAdmit(t, c, "a", OpScan, 1)()

	// Reads and writes never consult the scan-byte bucket.
	c.DebitScanBytes("a", 10_000)
	mustAdmit(t, c, "a", OpWrite, 1)()
	mustAdmit(t, c, "a", OpRead, 1)()
}

// TestShedPriorityOrder walks the in-flight watermark through every
// threshold and asserts the strict degradation order at each level:
// best-effort scans shed first, then best-effort writes, then
// committed scans; committed writes only at the ceiling.
func TestShedPriorityOrder(t *testing.T) {
	c, _ := newTestController(t, Config{
		MaxInFlight: 8,
		Tenants: map[string]TenantConfig{
			"be": {Priority: BestEffort},
			"co": {Priority: Committed},
		},
	})
	type probe struct {
		tenant string
		op     Op
		class  int
	}
	probes := []probe{
		{"co", OpWrite, 0},
		{"co", OpScan, 1},
		{"be", OpWrite, 2},
		{"be", OpScan, 3},
	}
	// shedFloor thresholds for max=8: floor 3 at 5 in flight, 2 at 6,
	// 1 at 7, 0 at 8.
	wantFloor := map[int]int{0: 4, 4: 4, 5: 3, 6: 2, 7: 1, 8: 0}
	// Fillers must be committed writes (class 0) so they stay
	// admittable up to the ceiling while we pin the watermark.
	var releases []func()
	raiseTo := func(n int) {
		for len(releases) < n {
			releases = append(releases, mustAdmit(t, c, "co", OpWrite, 1))
		}
	}
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for _, inFlight := range []int{0, 4, 5, 6, 7} {
		raiseTo(inFlight)
		floor := wantFloor[inFlight]
		for _, p := range probes {
			if p.class >= floor {
				mustReject(t, c, p.tenant, p.op, 1)
			} else {
				mustAdmit(t, c, p.tenant, p.op, 1)()
			}
		}
	}
	// At the ceiling even committed writes shed ("committed writes
	// last" — nothing sheds later).
	raiseTo(8)
	for _, p := range probes {
		mustReject(t, c, p.tenant, p.op, 1)
	}
	st := c.Stats()
	for class := 1; class < NumShedClasses; class++ {
		if st.ShedByClass[class] < st.ShedByClass[class-1] {
			t.Fatalf("shed order violated: class %d shed %d times, class %d shed %d",
				class, st.ShedByClass[class], class-1, st.ShedByClass[class-1])
		}
	}
}

// TestReleaseDrainsInFlight: releasing admitted work reopens
// admission, and double-release is harmless.
func TestReleaseDrainsInFlight(t *testing.T) {
	c, _ := newTestController(t, Config{MaxInFlight: 2})
	r1 := mustAdmit(t, c, "", OpWrite, 1)
	r2 := mustAdmit(t, c, "", OpWrite, 1)
	mustReject(t, c, "", OpWrite, 1)
	r1()
	r1() // idempotent
	if st := c.Stats(); st.InFlight != 1 {
		t.Fatalf("in-flight after release = %d, want 1", st.InFlight)
	}
	mustAdmit(t, c, "", OpWrite, 1)()
	r2()
	if st := c.Stats(); st.InFlight != 0 || st.PeakInFlight != 2 {
		t.Fatalf("in-flight/peak = %d/%d, want 0/2", st.InFlight, st.PeakInFlight)
	}
}

// TestHotTenantDetection: a tenant whose windowed demand dominates
// the mean is reported (shed attempts count as demand), and detection
// needs at least two active tenants.
func TestHotTenantDetection(t *testing.T) {
	c, clk := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"hot": {OpsPerSec: 10}, // quota-capped: most attempts shed
		},
	})
	// Window 1: hot fires 1000 attempts (mostly shed), cold fires 10.
	for i := 0; i < 1000; i++ {
		if release, err := c.Admit("hot", OpWrite, 1); err == nil {
			release()
		}
	}
	for i := 0; i < 10; i++ {
		mustAdmit(t, c, "cold", OpWrite, 1)()
	}
	if hot := c.HotTenants(); hot != nil {
		t.Fatalf("hot tenants before a completed window: %v", hot)
	}
	clk.Advance(time.Second)
	hot := c.HotTenants()
	if len(hot) != 1 || hot[0].Tenant != "hot" {
		t.Fatalf("hot tenants = %v, want exactly [hot]", hot)
	}
	if hot[0].Rate < 900 || hot[0].Rate > 1100 {
		t.Fatalf("hot rate = %v, want ~1000/s", hot[0].Rate)
	}
	// Two quiet windows later the demand signal decays.
	clk.Advance(2 * time.Second)
	if hot := c.HotTenants(); hot != nil {
		t.Fatalf("hot tenants after going quiet: %v", hot)
	}
}

// TestRejectionTaxonomy: rejections are classified rpc.ErrOverloaded
// and carry a parseable retry-after hint even across the string wire
// boundary.
func TestRejectionTaxonomy(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{"a": {OpsPerSec: 1, Burst: 1}},
	})
	mustAdmit(t, c, "a", OpWrite, 1)()
	err := mustReject(t, c, "a", OpWrite, 1)
	wire := rpc.Response{Err: rpc.ErrString(err)}
	if e := wire.Error(); !rpc.IsOverloaded(e) {
		t.Fatalf("rehydrated wire error not classified overloaded: %v", e)
	} else if got := rpc.RetryAfter(e); got != time.Second {
		t.Fatalf("rehydrated retry-after = %v, want 1s", got)
	}
}

// TestStatsDescribe keeps the operator rendering stable enough for
// scads-ctl: every tenant appears, sorted, with its priority class.
func TestStatsDescribe(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"b": {Priority: Committed},
			"a": {Priority: BestEffort},
		},
	})
	mustAdmit(t, c, "b", OpWrite, 1)()
	st := c.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "a" || st.Tenants[1].Tenant != "b" {
		t.Fatalf("tenants not sorted: %+v", st.Tenants)
	}
	out := st.Describe()
	for _, want := range []string{"tenant a [besteffort]", "tenant b [committed]", "admitted 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe() missing %q:\n%s", want, out)
		}
	}
}

// TestEnterRejectsAsAdmit: Enter sheds what Admit sheds, for the same
// reason, and its rejection's Err is the error Admit returns; Leave
// reopens what Enter took.
func TestEnterRejectsAsAdmit(t *testing.T) {
	newCtl := func() *Controller {
		c, _ := newTestController(t, Config{MaxInFlight: 8, Tenants: map[string]TenantConfig{
			"capped":  {OpsPerSec: 1, Burst: 1},
			"scanner": {ScanBytesPerSec: 10},
		}})
		c.DebitScanBytes("scanner", 100)
		return c
	}
	byAdmit, byEnter := newCtl(), newCtl()
	for _, op := range []struct {
		tenant string
		op     Op
	}{
		{"capped", OpRead}, {"capped", OpRead}, {"scanner", OpScan},
		{"", OpScan}, {"", OpScan}, {"", OpScan}, {"", OpScan}, {"", OpScan}, {"", OpScan},
	} {
		_, admitErr := byAdmit.Admit(op.tenant, op.op, 1)
		rej, ok := byEnter.Enter(op.tenant, op.op, 1)
		if ok != (admitErr == nil) {
			t.Fatalf("%q %v: Enter admitted=%v, Admit err=%v", op.tenant, op.op, ok, admitErr)
		}
		if !ok && rej.Err().Error() != admitErr.Error() {
			t.Fatalf("%q %v: Enter's rejection %q, Admit's %q", op.tenant, op.op, rej.Err(), admitErr)
		}
	}
	if got, want := byEnter.Stats().InFlight, byAdmit.Stats().InFlight; got != want || got == 0 {
		t.Fatalf("in flight after Enter %d, after Admit %d; want equal and above 0", got, want)
	}
	for n := byEnter.Stats().InFlight; n > 0; n-- {
		byEnter.Leave()
	}
	if st := byEnter.Stats(); st.InFlight != 0 {
		t.Fatalf("in flight after every Leave = %d, want 0", st.InFlight)
	}
	if _, ok := byEnter.Enter("", OpScan, 1); !ok {
		t.Fatal("Enter still sheds once every admitted op has left")
	}
}
