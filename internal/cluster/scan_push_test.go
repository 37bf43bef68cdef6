package cluster

import (
	"fmt"
	"testing"

	"scads/internal/keycodec"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
)

// seedRows stores n encoded rows under ordered keys and returns the
// keys. Row i is {id: "u<i>", name: "name-<i>", age: i}.
func seedRows(t *testing.T, n *Node, ns string, count int) [][]byte {
	t.Helper()
	keys := make([][]byte, count)
	for i := 0; i < count; i++ {
		key := keycodec.MustEncode(fmt.Sprintf("u%03d", i))
		keys[i] = key
		val, err := row.Encode(row.Row{"id": fmt.Sprintf("u%03d", i), "name": fmt.Sprintf("name-%03d", i), "age": int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		resp := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: ns, Key: key, Value: val})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
	}
	return keys
}

func TestNodeScanProjectionPushdown(t *testing.T) {
	n := newTestNode(t, "n1")
	seedRows(t, n, "tbl", 10)

	resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 100, Projection: []string{"id", "age"}})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 10 {
		t.Fatalf("scan returned %d records", len(resp.Records))
	}
	for i, rec := range resp.Records {
		r, err := row.Decode(rec.Value)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 2 || r["id"] != fmt.Sprintf("u%03d", i) || r["age"] != int64(i) {
			t.Fatalf("projected row %d = %v", i, r)
		}
		if _, ok := r["name"]; ok {
			t.Fatalf("projection leaked dropped column: %v", r)
		}
	}
}

func TestNodeScanPredicatePushdown(t *testing.T) {
	n := newTestNode(t, "n1")
	seedRows(t, n, "tbl", 20)

	ge, err := keycodec.Append(nil, int64(5))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := keycodec.Append(nil, int64(9))
	if err != nil {
		t.Fatal(err)
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 100, Preds: []rpc.ScanPred{
		{Column: "age", Op: rpc.PredGe, Value: ge},
		{Column: "age", Op: rpc.PredLt, Value: lt},
	}})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 4 { // ages 5,6,7,8
		t.Fatalf("filtered scan returned %d records, want 4", len(resp.Records))
	}
	for i, rec := range resp.Records {
		r, err := row.Decode(rec.Value)
		if err != nil {
			t.Fatal(err)
		}
		if r["age"] != int64(5+i) {
			t.Fatalf("filtered row %d age = %v", i, r["age"])
		}
	}

	// A filter on a missing column matches nothing rather than erroring.
	resp = n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 100, Preds: []rpc.ScanPred{
		{Column: "ghost", Op: rpc.PredGe, Value: ge},
	}})
	if resp.Error() != nil || len(resp.Records) != 0 {
		t.Fatalf("missing-column filter: %v / %d records", resp.Error(), len(resp.Records))
	}
}

func TestNodeScanFilteredRowsDoNotCountAgainstLimit(t *testing.T) {
	n := newTestNode(t, "n1")
	seedRows(t, n, "tbl", 20)

	ge, err := keycodec.Append(nil, int64(10))
	if err != nil {
		t.Fatal(err)
	}
	// Limit 5 with a filter skipping the first 10 rows: the node must
	// return 5 matching rows, not stop after visiting 5.
	resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 5, Preds: []rpc.ScanPred{
		{Column: "age", Op: rpc.PredGe, Value: ge},
	}})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 5 {
		t.Fatalf("filtered limited scan returned %d records, want 5", len(resp.Records))
	}
	r, _ := row.Decode(resp.Records[0].Value)
	if r["age"] != int64(10) {
		t.Fatalf("first matching row age = %v, want 10", r["age"])
	}
	if !resp.More {
		t.Fatal("limit-stopped scan did not report More")
	}
}

func TestNodeScanResumeCursor(t *testing.T) {
	n := newTestNode(t, "n1")
	keys := seedRows(t, n, "tbl", 10)

	var got [][]byte
	start := []byte(nil)
	pages := 0
	for {
		resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Start: start, Limit: 3})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		for _, rec := range resp.Records {
			got = append(got, rec.Key)
		}
		pages++
		if !resp.More {
			break
		}
		start = resp.Resume
	}
	if len(got) != 10 || pages != 4 {
		t.Fatalf("paged scan: %d keys over %d pages", len(got), pages)
	}
	for i, k := range got {
		if string(k) != string(keys[i]) {
			t.Fatalf("page order broken at %d", i)
		}
	}

	// An exact stop at the end bound must not claim More.
	resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Start: keys[0], End: keys[3], Limit: 3})
	if resp.Error() != nil || len(resp.Records) != 3 {
		t.Fatalf("bounded scan: %v / %d records", resp.Error(), len(resp.Records))
	}
	if resp.More {
		t.Fatal("scan stopping exactly at End reported More")
	}
}

func TestNodeScanBouncesOffFence(t *testing.T) {
	n := newTestNode(t, "n1")
	keys := seedRows(t, n, "tbl", 10)

	// Fence [keys[3], keys[6]): scans overlapping it bounce, scans
	// outside it pass.
	resp := n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: "tbl", Start: keys[3], End: keys[6], Fence: true})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 100})
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("scan across fence = %v, want fenced", resp.Error())
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Start: keys[6], Limit: 100})
	if resp.Error() != nil || len(resp.Records) != 4 {
		t.Fatalf("scan outside fence: %v / %d records", resp.Error(), len(resp.Records))
	}
	// Lifting the fence reopens the span.
	resp = n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: "tbl", Start: keys[3], End: keys[6], Fence: false})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 100})
	if resp.Error() != nil || len(resp.Records) != 10 {
		t.Fatalf("scan after unfence: %v / %d records", resp.Error(), len(resp.Records))
	}
}

// TestNodeScanPageOwnsItsBytes: a scan page's records are copies in a
// buffer the page owns, not views of engine memory. Overwriting every
// returned byte leaves the stored records as they were, for a plain, a
// projected and a filtered scan alike; 200 records over a buffer first
// sized for 16 make the page span several buffer replacements.
func TestNodeScanPageOwnsItsBytes(t *testing.T) {
	n := newTestNode(t, "n1")
	const count = 200
	keys := seedRows(t, n, "tbl", count)
	ge, err := keycodec.Append(nil, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := n.Engine().Namespace("tbl")
	if err != nil {
		t.Fatal(err)
	}
	stored := func(i int) row.Row {
		t.Helper()
		rec, found, err := ns.GetRecord(keys[i])
		if err != nil || !found {
			t.Fatalf("engine read of row %d: found=%v err=%v", i, found, err)
		}
		r, err := row.Decode(rec.Value)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, c := range []struct {
		name string
		req  rpc.Request
		cols int
	}{
		{"plain", rpc.Request{}, 3},
		{"projected", rpc.Request{Projection: []string{"id", "age"}}, 2},
		{"filtered", rpc.Request{Preds: []rpc.ScanPred{{Column: "age", Op: rpc.PredGe, Value: ge}}}, 3},
	} {
		req := c.req
		req.Method, req.Namespace, req.Limit = rpc.MethodScan, "tbl", 1000
		resp := n.Serve(req)
		if resp.Error() != nil || len(resp.Records) != count {
			t.Fatalf("%s scan: %v / %d records", c.name, resp.Error(), len(resp.Records))
		}
		for i, rec := range resp.Records {
			r, err := row.Decode(rec.Value)
			if err != nil {
				t.Fatalf("%s record %d: %v", c.name, i, err)
			}
			if string(rec.Key) != string(keys[i]) || len(r) != c.cols || r["id"] != fmt.Sprintf("u%03d", i) || r["age"] != int64(i) {
				t.Fatalf("%s record %d = %q %v", c.name, i, rec.Key, r)
			}
		}
		for _, rec := range resp.Records {
			for j := range rec.Key {
				rec.Key[j] = 0xff
			}
			for j := range rec.Value {
				rec.Value[j] = 0xff
			}
		}
		for i := 0; i < count; i++ {
			if r := stored(i); r["name"] != fmt.Sprintf("name-%03d", i) || r["age"] != int64(i) {
				t.Fatalf("after overwriting the %s page, stored row %d = %v", c.name, i, r)
			}
		}
	}
}

// TestPageBufReplacementKeepsEarlierRecords: a page buffer that runs
// out of room moves on to a fresh array, and every record copied before
// the move still reads back intact.
func TestPageBufReplacementKeepsEarlierRecords(t *testing.T) {
	page := pageBuf{first: 2}
	var got []record.Record
	arrays := 0
	for i := 0; i < 100; i++ {
		before := cap(page.buf)
		got = append(got, page.record(record.Record{
			Key: []byte(fmt.Sprintf("key-%03d", i)), Value: []byte(fmt.Sprintf("value-%03d", i)), Version: uint64(i),
		}))
		if cap(page.buf) != before {
			arrays++
		}
	}
	if arrays < 3 {
		t.Fatalf("100 records used %d arrays; the test needs a page that spans replacements", arrays)
	}
	for i, rec := range got {
		if string(rec.Key) != fmt.Sprintf("key-%03d", i) || string(rec.Value) != fmt.Sprintf("value-%03d", i) || rec.Version != uint64(i) {
			t.Fatalf("record %d = %q %q v%d", i, rec.Key, rec.Value, rec.Version)
		}
		if cap(rec.Key) != len(rec.Key) || cap(rec.Value) != len(rec.Value) {
			t.Fatalf("record %d's slices reach into the page past their own bytes", i)
		}
	}
}

// TestResidualFilterReadsRowsInPlace: a filtered, projected scan over
// rows of 20 columns. The filter reads the row in place and encodes
// only the column it tests into the page's scratch buffer, so a row it
// tests costs no allocation: no column was decoded into a value. The
// projected page is byte for byte row.AppendEncode of the projected row
// map, what the node served when it decoded each row.
func TestResidualFilterReadsRowsInPlace(t *testing.T) {
	wide := func(i int) row.Row {
		r := row.Row{"id": fmt.Sprintf("u%03d", i), "age": int64(i)}
		for c := range 18 {
			r[fmt.Sprintf("c%02d", c)] = fmt.Sprintf("value-%d-%d", i, c)
		}
		return r
	}
	n := newTestNode(t, "n1")
	stored := make([]record.Record, 50)
	for i := range stored {
		val, err := row.Encode(wide(i))
		if err != nil {
			t.Fatal(err)
		}
		stored[i] = record.Record{Key: keycodec.MustEncode(fmt.Sprintf("u%03d", i)), Value: val}
		if resp := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "tbl", Key: stored[i].Key, Value: val}); resp.Error() != nil {
			t.Fatal(resp.Error())
		}
	}
	preds := []rpc.ScanPred{{Column: "age", Op: rpc.PredGe, Value: keycodec.MustEncode(int64(40))}}
	projection := []string{"id", "c07", "age", "absent"}
	resp := n.Serve(rpc.Request{Method: rpc.MethodScan, Namespace: "tbl", Limit: 100, Preds: preds, Projection: projection})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 10 {
		t.Fatalf("filtered scan returned %d records, want 10", len(resp.Records))
	}
	for i, rec := range resp.Records {
		decoded, err := row.Decode(stored[40+i].Value)
		if err != nil {
			t.Fatal(err)
		}
		want, err := row.AppendEncode(nil, row.Project(decoded, projection))
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Key) != string(stored[40+i].Key) || string(rec.Value) != string(want) {
			t.Fatalf("record %d = %q %x, want %q %x", i, rec.Key, rec.Value, stored[40+i].Key, want)
		}
	}

	p := newPage(100)
	for _, tc := range []struct {
		name  string
		rec   record.Record
		match bool
	}{{"rejected", stored[3], false}, {"projected", stored[45], true}} {
		transform := func() {
			p.buf = p.buf[:0]
			if _, match, err := p.transform(tc.rec, projection, preds); match != tc.match || err != nil {
				t.Fatalf("%s row: match %v, %v", tc.name, match, err)
			}
		}
		transform()
		if allocs := testing.AllocsPerRun(200, transform); allocs != 0 {
			t.Errorf("a %s row of 20 columns costs %.0f allocations, want 0", tc.name, allocs)
		}
	}
}
