//go:build !race

package admission

// Like the repository's other allocation pins, this one runs in the
// plain build: race instrumentation changes what escapes.

import "testing"

// TestEnterLeaveAllocs pins the front door's per-operation cost at no
// allocation, admitted (Enter, then Leave) or rejected (a tenant over
// its quota): the closure and sync.Once of Admit's release are what a
// caller pairing Enter with Leave saves.
func TestEnterLeaveAllocs(t *testing.T) {
	c, _ := newTestController(t, Config{MaxInFlight: 100, Tenants: map[string]TenantConfig{
		"capped": {OpsPerSec: 1, Burst: 1},
	}})
	if _, ok := c.Enter("capped", OpRead, 1); !ok {
		t.Fatal("the capped tenant's first op was rejected")
	}
	c.Leave()
	admitted := testing.AllocsPerRun(200, func() {
		if _, ok := c.Enter("", OpRead, 1); !ok {
			t.Fatal("Enter rejected an op of an unlimited tenant")
		}
		c.Leave()
	})
	rejected := testing.AllocsPerRun(200, func() {
		if _, ok := c.Enter("capped", OpRead, 1); ok {
			t.Fatal("Enter admitted a tenant over its quota")
		}
	})
	if admitted != 0 || rejected != 0 {
		t.Errorf("Enter+Leave allocates %.0f times, a rejected Enter %.0f; want 0 and 0", admitted, rejected)
	}
}
