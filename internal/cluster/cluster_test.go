package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

func newTestNode(t testing.TB, id string) *Node {
	t.Helper()
	e, err := storage.Open(storage.Options{NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return NewNode(id, e)
}

func TestNodeServeCRUD(t *testing.T) {
	n := newTestNode(t, "n1")

	resp := n.Serve(rpc.Request{Method: rpc.MethodPing})
	if !resp.Found || string(resp.Value) != "n1" {
		t.Fatalf("ping = %+v", resp)
	}

	resp = n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "users", Key: []byte("alice"), Value: []byte("p")})
	if resp.Error() != nil || resp.Version == 0 {
		t.Fatalf("put = %+v", resp)
	}

	resp = n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: "users", Key: []byte("alice")})
	if !resp.Found || !bytes.Equal(resp.Value, []byte("p")) {
		t.Fatalf("get = %+v", resp)
	}

	resp = n.Serve(rpc.Request{Method: rpc.MethodDelete, Namespace: "users", Key: []byte("alice")})
	if resp.Error() != nil {
		t.Fatalf("delete = %+v", resp)
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: "users", Key: []byte("alice")})
	if resp.Found {
		t.Fatal("deleted key still found")
	}
}

// TestNodeGetMany: a multi-get answers each key in order with what a get
// would — a live key's value and version, a tombstone at version 0 for a
// key never written, a tombstone at the delete's version for a deleted
// one — counts one read per key, and fails whole on an unknown
// namespace.
func TestNodeGetMany(t *testing.T) {
	n := newTestNode(t, "n1")
	put := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "users", Key: []byte("alice"), Value: []byte("p")})
	n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "users", Key: []byte("carol"), Value: []byte("q")})
	del := n.Serve(rpc.Request{Method: rpc.MethodDelete, Namespace: "users", Key: []byte("carol")})
	if put.Error() != nil || del.Error() != nil {
		t.Fatalf("put = %v, delete = %v", put.Error(), del.Error())
	}
	keys := []record.Record{{Key: []byte("alice")}, {Key: []byte("bob")}, {Key: []byte("carol")}}
	reads := n.ReadCount()
	resp := n.Serve(rpc.Request{Method: rpc.MethodBatch, Namespace: "users", Records: keys})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	want := []record.Record{
		{Value: []byte("p"), Version: put.Version},
		{Tombstone: true},
		{Version: del.Version, Tombstone: true},
	}
	if len(resp.Records) != len(want) {
		t.Fatalf("multi-get of %d keys answered %d records", len(keys), len(resp.Records))
	}
	for i, w := range want {
		got := resp.Records[i]
		if !bytes.Equal(got.Value, w.Value) || got.Version != w.Version || got.Tombstone != w.Tombstone {
			t.Errorf("key %q = %+v, want %+v", keys[i].Key, got, w)
		}
	}
	if got := n.ReadCount() - reads; got != int64(len(keys)) {
		t.Errorf("multi-get of %d keys counted %d reads", len(keys), got)
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodBatch, Namespace: "../bad", Records: keys})
	if resp.Error() == nil || resp.Records != nil {
		t.Fatalf("multi-get of an unknown namespace = %+v, want one error", resp)
	}
}

func TestNodeScanBoundedAndOrdered(t *testing.T) {
	n := newTestNode(t, "n1")
	for i := 0; i < 50; i++ {
		n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "ns", Key: []byte(fmt.Sprintf("k-%03d", i)), Value: []byte("v")})
	}
	resp := n.Serve(rpc.Request{
		Method: rpc.MethodScan, Namespace: "ns",
		Start: []byte("k-010"), End: []byte("k-040"), Limit: 10,
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 10 {
		t.Fatalf("scan returned %d records, want limit 10", len(resp.Records))
	}
	if string(resp.Records[0].Key) != "k-010" {
		t.Fatalf("first key = %q", resp.Records[0].Key)
	}
	for i := 1; i < len(resp.Records); i++ {
		if bytes.Compare(resp.Records[i-1].Key, resp.Records[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
}

func TestNodeApplyVersioned(t *testing.T) {
	n := newTestNode(t, "n1")
	recs := []record.Record{
		{Key: []byte("k"), Value: []byte("new"), Version: 100},
		{Key: []byte("k"), Value: []byte("stale"), Version: 50},
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodApply, Namespace: "ns", Records: recs})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	got := n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: "ns", Key: []byte("k")})
	if string(got.Value) != "new" {
		t.Fatalf("LWW violated over apply: %q", got.Value)
	}
}

func TestNodeDropRange(t *testing.T) {
	n := newTestNode(t, "n1")
	for i := 0; i < 20; i++ {
		n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "ns", Key: []byte(fmt.Sprintf("k-%02d", i)), Value: []byte("v")})
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodDropRange, Namespace: "ns", Start: []byte("k-05"), End: []byte("k-15")})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if resp.RecordCount != 10 {
		t.Fatalf("dropped %d records, want 10", resp.RecordCount)
	}
	for i := 0; i < 20; i++ {
		got := n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: "ns", Key: []byte(fmt.Sprintf("k-%02d", i))})
		wantFound := i < 5 || i >= 15
		if got.Found != wantFound {
			t.Fatalf("key %02d found=%v want %v", i, got.Found, wantFound)
		}
	}
}

func TestNodeStatsAndCounters(t *testing.T) {
	n := newTestNode(t, "n1")
	for i := 0; i < 5; i++ {
		n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "ns", Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	for i := 0; i < 3; i++ {
		n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: "ns", Key: []byte("k0")})
	}
	if n.WriteCount() != 5 || n.ReadCount() != 3 {
		t.Fatalf("counters = r%d w%d", n.ReadCount(), n.WriteCount())
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodStats})
	if resp.RecordCount != 5 {
		t.Fatalf("stats RecordCount = %d", resp.RecordCount)
	}
}

func TestNodeInvalidNamespace(t *testing.T) {
	n := newTestNode(t, "n1")
	resp := n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: "../bad", Key: []byte("k")})
	if resp.Error() == nil {
		t.Fatal("invalid namespace accepted")
	}
}

func TestNodeOverTCP(t *testing.T) {
	n := newTestNode(t, "n1")
	s := rpc.NewServer(n)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := rpc.NewTCPTransport()
	defer tr.Close()

	if _, err := tr.Call(addr, rpc.Request{Method: rpc.MethodPut, Namespace: "ns", Key: []byte("k"), Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodGet, Namespace: "ns", Key: []byte("k")})
	if err != nil || !resp.Found || string(resp.Value) != "v" {
		t.Fatalf("get over TCP: %v %+v", err, resp)
	}
}

func TestDirectoryLifecycle(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	d := NewDirectory(vc)
	d.Join("n1", "addr1")
	d.Join("n2", "addr2")

	for _, id := range []string{"n1", "n2"} {
		if m, _ := d.Get(id); m.Status != StatusBooting {
			t.Fatalf("%s after join = %v, want booting", id, m.Status)
		}
	}
	d.MarkUp("n1")
	d.MarkUp("n2")
	if len(d.Up()) != 2 {
		t.Fatal("MarkUp failed")
	}

	m, ok := d.Get("n1")
	if !ok || m.Addr != "addr1" || m.Status != StatusUp {
		t.Fatalf("Get = %+v %v", m, ok)
	}

	d.MarkDown("n2")
	if up := d.Up(); len(up) != 1 || up[0] != "n1" {
		t.Fatalf("Up after MarkDown = %v", up)
	}

	// Heartbeat resurrects a down node.
	d.Heartbeat("n2")
	if len(d.Up()) != 2 {
		t.Fatal("heartbeat did not resurrect")
	}

	d.Remove("n2")
	if _, ok := d.Get("n2"); ok {
		t.Fatal("Remove failed")
	}
}

func TestDirectoryExpireStale(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	d := NewDirectory(vc)
	d.Join("n1", "a1")
	d.Join("n2", "a2")
	d.MarkUp("n1")
	d.MarkUp("n2")

	vc.Advance(5 * time.Second)
	d.Heartbeat("n1") // n2 goes silent

	vc.Advance(6 * time.Second)
	expired := d.ExpireStale(10 * time.Second)
	if len(expired) != 1 || expired[0] != "n2" {
		t.Fatalf("expired = %v, want [n2]", expired)
	}
	if up := d.Up(); len(up) != 1 || up[0] != "n1" {
		t.Fatalf("Up after expiry = %v", up)
	}
	// Booting nodes are never expired.
	d.Join("n3", "a3")
	vc.Advance(time.Hour)
	for _, id := range d.ExpireStale(10 * time.Second) {
		if id == "n3" {
			t.Fatal("booting node expired")
		}
	}
}

func TestDirectoryMembersSorted(t *testing.T) {
	d := NewDirectory(clock.NewVirtual(time.Unix(0, 0)))
	for _, id := range []string{"z", "a", "m"} {
		d.Join(id, id+"-addr")
	}
	ms := d.Members()
	if ms[0].ID != "a" || ms[1].ID != "m" || ms[2].ID != "z" {
		t.Fatalf("Members not sorted: %v", ms)
	}
}

func TestStatusString(t *testing.T) {
	if StatusBooting.String() != "booting" || StatusUp.String() != "up" || StatusDown.String() != "down" {
		t.Fatal("Status strings wrong")
	}
	if Status(99).String() == "" {
		t.Fatal("unknown status has empty string")
	}
}

// seedBigValues installs count records of valSize bytes each, totalling
// comfortably past pageByteBudget, via the apply path.
func seedBigValues(t testing.TB, n *Node, count, valSize int) {
	t.Helper()
	recs := make([]record.Record, count)
	for i := range recs {
		recs[i] = record.Record{
			Key:     []byte(fmt.Sprintf("big%04d", i)),
			Value:   bytes.Repeat([]byte{byte('a' + i%26)}, valSize),
			Version: uint64(i + 1),
		}
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodApply, Namespace: "blobs", Records: recs})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
}

// TestNodeScanByteBudgetPages: record-count limits alone would let a
// scan of large values assemble a response past the wire frame cap;
// the byte budget must cut pages short with the exact More/Resume
// contract, and paging must still visit every record exactly once.
func TestNodeScanByteBudgetPages(t *testing.T) {
	n := newTestNode(t, "n1")
	const count, valSize = 30, 256 << 10 // ~7.5 MiB total, budget 4 MiB
	seedBigValues(t, n, count, valSize)

	var got []string
	pages := 0
	start := []byte(nil)
	for {
		resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "blobs", Start: start, Limit: count + 10})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		pages++
		for _, r := range resp.Records {
			got = append(got, string(r.Key))
			if len(r.Value) != valSize {
				t.Fatalf("record %q value truncated to %d", r.Key, len(r.Value))
			}
		}
		if !resp.More {
			break
		}
		if resp.Resume == nil {
			t.Fatal("More without Resume")
		}
		start = resp.Resume
	}
	if pages < 2 {
		t.Fatalf("scan of %d MiB served in %d page(s); byte budget did not page", count*valSize>>20, pages)
	}
	if len(got) != count {
		t.Fatalf("paged scan returned %d records, want %d", len(got), count)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("paged scan out of order at %d: %q >= %q", i, got[i-1], got[i])
		}
	}
}

// TestNodeRangeSnapshotByteBudgetPages: a snapshot page cut short by
// the byte budget must flag More and carry Resume so the migration
// manager keeps paging instead of declaring the snapshot complete
// (which would silently lose the tail of the range).
func TestNodeRangeSnapshotByteBudgetPages(t *testing.T) {
	n := newTestNode(t, "n1")
	const count, valSize = 30, 256 << 10
	seedBigValues(t, n, count, valSize)

	total := 0
	pages := 0
	cur := []byte(nil)
	for {
		resp := n.Serve(rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: "blobs", Start: cur, Limit: count + 10})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		pages++
		total += len(resp.Records)
		if !resp.More {
			break
		}
		if resp.Resume == nil {
			t.Fatal("More without Resume")
		}
		cur = resp.Resume
	}
	if pages < 2 {
		t.Fatalf("snapshot served in %d page(s); byte budget did not page", pages)
	}
	if total != count {
		t.Fatalf("paged snapshot returned %d records, want %d", total, count)
	}
}

// TestNodeRangeDeltaByteBudgetPages: a delta page of large values must
// stop at the byte budget — not assemble a page past the RPC frame cap
// — while More and the advancing watermark let the caller page to
// completion exactly once per record.
func TestNodeRangeDeltaByteBudgetPages(t *testing.T) {
	n := newTestNode(t, "n1")
	ns, err := n.Engine().Namespace("blobs")
	if err != nil {
		t.Fatal(err)
	}
	epoch, wm := ns.ApplyWatermark()
	const count, valSize = 30, 256 << 10 // ~7.5 MiB of values, budget 4 MiB
	seedBigValues(t, n, count, valSize)

	seen := map[string]bool{}
	pages := 0
	for {
		resp := n.Serve(rpc.Request{Method: rpc.MethodRangeDelta, Namespace: "blobs", Epoch: epoch, Since: wm, Limit: count + 10})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		pages++
		bytes := 0
		for _, r := range resp.Records {
			if seen[string(r.Key)] {
				t.Fatalf("key %q served twice", r.Key)
			}
			seen[string(r.Key)] = true
			bytes += r.MarshaledSize()
		}
		// One record of grace past the budget is allowed (checked
		// between records); far more means the budget is not applied.
		if bytes > pageByteBudget+2*valSize {
			t.Fatalf("page carries %d encoded bytes, budget %d", bytes, pageByteBudget)
		}
		wm = resp.Watermark
		if !resp.More {
			break
		}
	}
	if len(seen) != count || pages < 2 {
		t.Fatalf("byte-budget paging saw %d keys in %d pages", len(seen), pages)
	}
}
