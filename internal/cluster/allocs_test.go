//go:build !race

package cluster

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled scan state allocates and the counts below do not hold; the pin
// runs in the plain build.

import (
	"bytes"
	"fmt"
	"testing"

	"scads/internal/rpc"
)

// TestRangePageAllocs pins a 1024-record page of 32-byte values. Scan
// and snapshot pages fill the same page: a doubling record slice and
// byte buffer, at the same count. A delta page adds ScanSince's
// per-call set of the keys it sent.
func TestRangePageAllocs(t *testing.T) {
	const count = 1024
	n := newTestNode(t, "n1")
	ns, err := n.Engine().Namespace("page")
	if err != nil {
		t.Fatal(err)
	}
	epoch, since := ns.ApplyWatermark()
	for i := 0; i < count; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("user-%08d", i)), bytes.Repeat([]byte{'v'}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		req  rpc.Request
		max  float64
	}{
		{"scan", rpc.Request{Method: rpc.MethodScan}, 14},
		{"snapshot", rpc.Request{Method: rpc.MethodRangeSnapshot}, 14},
		{"delta", rpc.Request{Method: rpc.MethodRangeDelta, Epoch: epoch, Since: since}, 1058},
	} {
		c.req.Namespace, c.req.Limit = "page", count
		got := testing.AllocsPerRun(20, func() {
			resp := n.Serve(c.req)
			if resp.Error() != nil || len(resp.Records) != count || resp.More {
				t.Fatalf("%s page: %d records, more %v, err %v", c.name, len(resp.Records), resp.More, resp.Error())
			}
		})
		t.Logf("%s: %v allocs", c.name, got)
		if got > c.max {
			t.Errorf("a %d-record %s page allocates %v times, want <= %v", count, c.name, got, c.max)
		}
	}
}
