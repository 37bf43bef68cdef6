package cluster

import (
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// swapReq is a MethodSwap of one record into namespace "ns".
func swapReq(key, value string, version uint64) rpc.Request {
	rec := record.Record{Key: []byte(key), Version: version, Tombstone: value == ""}
	if value != "" {
		rec.Value = []byte(value)
	}
	return rpc.Request{Method: rpc.MethodSwap, Namespace: "ns", Records: []record.Record{rec}}
}

// TestSwapAnswersTheDisplacedRecord: a swap answers the live record it
// displaced, and a tombstone onto an absent or deleted key writes
// nothing.
func TestSwapAnswersTheDisplacedRecord(t *testing.T) {
	n := newTestNode(t, "n1")
	stored := func(key string) (record.Record, bool) {
		t.Helper()
		ns, err := n.Engine().Namespace("ns")
		if err != nil {
			t.Fatal(err)
		}
		rec, found, err := ns.GetRecord([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		return rec, found
	}
	for _, step := range []struct {
		req     rpc.Request
		found   bool
		value   string
		version uint64
	}{
		{req: swapReq("absent", "", 1)}, // a tombstone onto an absent key
		{req: swapReq("k", "v1", 2)},    // a new row
		{req: swapReq("k", "v2", 3), found: true, value: "v1", version: 2},
		{req: swapReq("k", "", 4), found: true, value: "v2", version: 3},
		{req: swapReq("k", "", 5)}, // a tombstone onto a deleted key
	} {
		resp := n.Serve(step.req)
		if resp.Err != "" || resp.Found != step.found || string(resp.Value) != step.value || resp.Version != step.version {
			t.Fatalf("swap of version %d = %+v, want found %v, value %q, version %d",
				step.req.Records[0].Version, resp, step.found, step.value, step.version)
		}
	}
	if rec, found := stored("absent"); found {
		t.Errorf("a tombstone onto an absent key stored %+v", rec)
	}
	if rec, _ := stored("k"); !rec.Tombstone || rec.Version != 4 {
		t.Errorf("k holds %+v, want the first tombstone (version 4) only", rec)
	}
}

// TestSwapRedelivery: a swap re-delivered after it landed is answered
// with what its first delivery displaced, until the node has forgotten
// that answer; then it fails with ErrSwapAnswerLost instead of answering
// its own record.
func TestSwapRedelivery(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC))
	e, err := storage.Open(storage.Options{NodeID: 1, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	n := NewNode("n1", e)

	n.Serve(swapReq("k", "v1", 1))
	again := swapReq("k", "v2", 2)
	for i := 0; i < 2; i++ {
		if resp := n.Serve(again); resp.Err != "" || !resp.Found || string(resp.Value) != "v1" || resp.Version != 1 {
			t.Fatalf("delivery %d of the swap = %+v, want v1 at version 1", i+1, resp)
		}
	}

	vc.Advance(swapRetention + time.Second)
	n.Serve(swapReq("other", "v", 3)) // remembering prunes what is past retention
	if resp := n.Serve(again); resp.Err != rpc.ErrSwapAnswerLost.Error() {
		t.Fatalf("re-delivery past retention = %+v, want %v", resp, rpc.ErrSwapAnswerLost)
	}
}
