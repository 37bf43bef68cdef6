package cluster

import (
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// rec is one record of key, a tombstone when value is empty.
func rec(key, value string, version uint64) record.Record {
	r := record.Record{Key: []byte(key), Version: version, Tombstone: value == ""}
	if value != "" {
		r.Value = []byte(value)
	}
	return r
}

// swapReq is a MethodSwap of recs into namespace "ns" under the bound
// since (0: none).
func swapReq(since uint64, recs ...record.Record) rpc.Request {
	return rpc.Request{Method: rpc.MethodSwap, Namespace: "ns", Records: recs, Since: since}
}

// answered is what a swap answered for one record: the displaced
// record's value ("" for none) and version.
type answered struct {
	value   string
	version uint64
}

// checkAnswers fails unless resp answers want, in order.
func checkAnswers(t *testing.T, what string, resp rpc.Response, want ...answered) {
	t.Helper()
	if resp.Err != "" || len(resp.Records) != len(want) {
		t.Fatalf("%s = %+v, want %d answers", what, resp, len(want))
	}
	for i, w := range want {
		got := resp.Records[i]
		if got.Tombstone != (w.value == "") || string(got.Value) != w.value || got.Version != w.version {
			t.Errorf("%s: answer %d = %+v, want value %q at version %d", what, i, got, w.value, w.version)
		}
	}
}

// stored reads key's record straight from n's engine.
func stored(t *testing.T, n *Node, key string) (record.Record, bool) {
	t.Helper()
	ns, err := n.Engine().Namespace("ns")
	if err != nil {
		t.Fatal(err)
	}
	r, found, err := ns.GetRecord([]byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return r, found
}

// TestSwapAnswersTheDisplacedRecord: a swap answers the record it
// displaced, a tombstone's version included, and a tombstone onto an
// absent or deleted key writes nothing.
func TestSwapAnswersTheDisplacedRecord(t *testing.T) {
	n := newTestNode(t, "n1")
	for _, step := range []struct {
		rec  record.Record
		want answered
	}{
		{rec: rec("absent", "", 1)}, // a tombstone onto an absent key
		{rec: rec("k", "v1", 2)},    // a new row
		{rec: rec("k", "v2", 3), want: answered{"v1", 2}},
		{rec: rec("k", "", 4), want: answered{"v2", 3}},
		{rec: rec("k", "", 5), want: answered{"", 4}}, // a tombstone onto a deleted key
		{rec: rec("k", "v3", 6), want: answered{"", 4}},
	} {
		checkAnswers(t, "swap", n.Serve(swapReq(0, step.rec)), step.want)
	}
	if r, found := stored(t, n, "absent"); found {
		t.Errorf("a tombstone onto an absent key stored %+v", r)
	}
	if r, _ := stored(t, n, "k"); string(r.Value) != "v3" || r.Version != 6 {
		t.Errorf("k holds %+v, want v3 at version 6", r)
	}
}

// TestSwapAnswersABatchInOrder: one swap of N records answers each in
// order, and a later record of a key displaces the earlier one of the
// same batch.
func TestSwapAnswersABatchInOrder(t *testing.T) {
	n := newTestNode(t, "n1")
	n.Serve(swapReq(0, rec("a", "a1", 1)))
	resp := n.Serve(swapReq(0, rec("a", "a2", 2), rec("b", "b1", 3), rec("a", "a3", 4), rec("b", "", 5)))
	checkAnswers(t, "batch", resp, answered{"a1", 1}, answered{}, answered{"a2", 2}, answered{"b1", 3})
	if r, _ := stored(t, n, "a"); string(r.Value) != "a3" {
		t.Errorf("a holds %+v, want a3", r)
	}
	if r, _ := stored(t, n, "b"); !r.Tombstone || r.Version != 5 {
		t.Errorf("b holds %+v, want the tombstone at version 5", r)
	}
}

// TestSwapBound: a swap bounded below the stored version applies
// nothing and answers the stored record, a tombstone included; one
// within its bound applies.
func TestSwapBound(t *testing.T) {
	n := newTestNode(t, "n1")
	n.Serve(swapReq(0, rec("k", "v1", 10)))
	checkAnswers(t, "a swap bounded at the stored version", n.Serve(swapReq(10, rec("k", "lost", 11))), answered{"v1", 10})
	if r, _ := stored(t, n, "k"); string(r.Value) != "v1" {
		t.Fatalf("a refused swap stored %+v", r)
	}
	checkAnswers(t, "a swap within its bound", n.Serve(swapReq(11, rec("k", "v2", 12))), answered{"v1", 10})
	n.Serve(swapReq(0, rec("k", "", 13)))
	checkAnswers(t, "a bounded swap onto a tombstone", n.Serve(swapReq(1, rec("k", "lost", 14))), answered{"", 13})
	if r, _ := stored(t, n, "k"); !r.Tombstone {
		t.Fatalf("a refused swap onto a tombstone stored %+v", r)
	}
	checkAnswers(t, "a bounded swap onto an absent key", n.Serve(swapReq(1, rec("new", "v", 15))), answered{})
}

// TestSwapRedelivery: a swap re-delivered after it landed is answered
// with what its first delivery displaced, record by record, until the
// node has forgotten those answers; then it fails with
// ErrSwapAnswerLost instead of answering its own record.
func TestSwapRedelivery(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC))
	e, err := storage.Open(storage.Options{NodeID: 1, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	n := NewNode("n1", e)

	n.Serve(swapReq(0, rec("k", "v1", 1)))
	again := swapReq(0, rec("k", "v2", 2), rec("j", "j1", 3), rec("k", "v3", 4))
	for i := 0; i < 2; i++ {
		checkAnswers(t, "a delivery of the batch", n.Serve(again), answered{"v1", 1}, answered{}, answered{"v2", 2})
	}
	if r, _ := stored(t, n, "k"); string(r.Value) != "v3" {
		t.Fatalf("k holds %+v after the re-delivery, want v3", r)
	}

	vc.Advance(swapRetention + time.Second)
	n.Serve(swapReq(0, rec("other", "v", 5))) // remembering prunes what is past retention
	if resp := n.Serve(again); resp.Err != rpc.ErrSwapAnswerLost.Error() {
		t.Fatalf("re-delivery past retention = %+v, want %v", resp, rpc.ErrSwapAnswerLost)
	}
}
