package scads

import (
	"fmt"

	"scads/internal/rpc"
)

// AdminHandler returns an rpc.Handler exposing coordinator-side
// operational state over the same wire protocol the storage nodes
// speak, so scads-ctl can query a coordinator exactly like a node.
// Serve it with rpc.NewServer(c.AdminHandler()) on an operator port.
//
// Methods:
//
//   - ping: answers with "coordinator" (distinguishes a coordinator
//     from a storage node when probing an address).
//   - repairs: the self-healing loop's counters and in-flight jobs
//     (scads-ctl repairs renders the reply).
//   - stats: coordinator-level counters (replication pending,
//     migration cleanups pending) in the numeric stats fields.
//   - tenants: the admission controller's per-tenant quota/shed/admit
//     counters and in-flight watermark (scads-ctl tenants renders the
//     reply).
func (c *Cluster) AdminHandler() rpc.Handler {
	return rpc.HandlerFunc(func(req rpc.Request) rpc.Response {
		switch req.Method {
		case rpc.MethodPing:
			return rpc.Response{ID: req.ID, Found: true, Value: []byte("coordinator")}
		case rpc.MethodRepairs:
			st := c.repairs.Stats()
			return rpc.Response{
				ID:          req.ID,
				Found:       true,
				Value:       []byte(c.repairs.Describe()),
				RecordCount: int64(st.PendingJobs),
			}
		case rpc.MethodStats:
			s := c.Stats()
			return rpc.Response{
				ID:          req.ID,
				Found:       true,
				QueueDepth:  s.Replication.Pending,
				RecordCount: int64(s.Migration.CleanupPending),
				Value:       []byte(fmt.Sprintf("maintenance=%d", s.Maintenance)),
			}
		case rpc.MethodTenants:
			st := c.admission.Stats()
			return rpc.Response{
				ID:          req.ID,
				Found:       true,
				Value:       []byte(st.Describe()),
				QueueDepth:  st.InFlight,
				RecordCount: int64(st.ShedQuota + st.ShedOverload()),
			}
		default:
			return rpc.Unimplemented(req)
		}
	})
}
