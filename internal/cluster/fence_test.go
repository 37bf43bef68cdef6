package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scads/internal/record"
	"scads/internal/rpc"
)

func TestFenceRejectsWritesInRangeOnly(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	put := func(key string) error {
		resp := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: ns, Key: []byte(key), Value: []byte("v")})
		return resp.Error()
	}

	resp := n.Serve(rpc.Request{
		Method: rpc.MethodRangeFence, Namespace: ns,
		Start: []byte("b"), End: []byte("d"), Fence: true,
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}

	if e := put("c"); !rpc.IsFenced(e) {
		t.Fatalf("in-fence put = %v, want fence rejection", e)
	}
	if e := put("a"); e != nil {
		t.Fatalf("out-of-fence put rejected: %v", e)
	}
	if e := put("d"); e != nil {
		t.Fatalf("put at exclusive end rejected: %v", e)
	}
	// Deletes and applies bounce too.
	resp = n.Serve(rpc.Request{Method: rpc.MethodDelete, Namespace: ns, Key: []byte("bb")})
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("in-fence delete = %v", resp.Error())
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodApply, Namespace: ns, Records: []record.Record{
		{Key: []byte("a"), Value: []byte("x"), Version: 99},
		{Key: []byte("c"), Value: []byte("x"), Version: 99},
	}})
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("apply group touching the fence = %v", resp.Error())
	}
	// Another namespace is unaffected.
	resp = n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: "tbl_other", Key: []byte("c"), Value: []byte("v")})
	if resp.Error() != nil {
		t.Fatalf("other namespace fenced: %v", resp.Error())
	}
	// Reads pass through.
	resp = n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: ns, Key: []byte("c")})
	if resp.Error() != nil {
		t.Fatalf("read through fence: %v", resp.Error())
	}

	// Lift: writes flow again; lifting twice is harmless.
	for i := 0; i < 2; i++ {
		resp = n.Serve(rpc.Request{
			Method: rpc.MethodRangeFence, Namespace: ns,
			Start: []byte("b"), End: []byte("d"), Fence: false,
		})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
	}
	if e := put("c"); e != nil {
		t.Fatalf("put after unfence: %v", e)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 0 {
		t.Fatal("fence count nonzero after lift")
	}
}

// TestFenceWaitsForScanInFlight: a scan reads while the fences hold
// still, so a fence — and the teardown a migration runs behind one —
// cannot land between a scan's fence check and its read; once the scan
// is done the fence goes up and later scans bounce.
func TestFenceWaitsForScanInFlight(t *testing.T) {
	var fs fenceSet
	reading, release := make(chan struct{}), make(chan struct{})
	go fs.whileClear("ns", nil, nil, func() {
		close(reading)
		<-release
	})
	<-reading
	fenced := make(chan struct{})
	go func() {
		fs.add("ns", []byte("b"), []byte("d"))
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("fence installed while a scan of the span was reading")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-fenced
	if fs.whileClear("ns", []byte("c"), nil, func() { t.Error("scan of a fenced span ran") }) {
		t.Fatal("scan of a fenced span reported clear")
	}
	if !fs.whileClear("ns", []byte("d"), nil, func() {}) {
		t.Fatal("scan beside the fence bounced")
	}
}

// TestFenceWaitsForWriteInFlight: a put, delete or apply writes while
// the fences hold still, so a write that passed the check cannot land
// after a fence went up — behind the final delta the install answers,
// where teardown would lose it; once the write is done the fence goes
// up and later writes into the span bounce.
func TestFenceWaitsForWriteInFlight(t *testing.T) {
	var fs fenceSet
	writing, release := make(chan struct{}), make(chan struct{})
	go fs.whileKeysClear("ns", []record.Record{{Key: []byte("c")}}, func() {
		close(writing)
		<-release
	})
	<-writing
	fenced := make(chan struct{})
	go func() {
		fs.add("ns", []byte("b"), []byte("d"))
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("fence installed while a write into the span was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-fenced
	group := []record.Record{{Key: []byte("a")}, {Key: []byte("c")}}
	if fs.whileKeysClear("ns", group, func() { t.Error("write group touching a fence ran") }) {
		t.Fatal("write group touching a fence reported clear")
	}
	if !fs.whileKeysClear("ns", []record.Record{{Key: []byte("d")}}, func() {}) {
		t.Fatal("write beside the fence bounced")
	}
}

// TestFenceAnswersFinalDelta: a fence install that asks for a page
// answers the range's delta since the caller's baseline. The fence goes
// up only once the writes in flight have landed, so every write the
// node acked in the range is in the answer — with writers racing the
// install — and every write into the range after it bounces.
func TestFenceAnswersFinalDelta(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	put := func(key string) error {
		resp := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: ns, Key: []byte(key), Value: []byte("v")})
		return resp.Error()
	}
	if err := put("b-below-baseline"); err != nil {
		t.Fatal(err)
	}
	base := n.Serve(rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: ns, Limit: -1})
	if base.Error() != nil {
		t.Fatal(base.Error())
	}
	acked := map[string]bool{}
	for _, k := range []string{"c-acked", "e-outside"} {
		if err := put(k); err != nil {
			t.Fatal(err)
		}
	}
	acked["c-acked"] = true

	// Writers put fresh keys into [b, d) until the fence bounces them.
	const writers = 4
	var mu sync.Mutex
	var done, warm sync.WaitGroup
	done.Add(writers)
	warm.Add(writers)
	for w := range writers {
		go func() {
			defer done.Done()
			warmed := false
			defer func() {
				if !warmed {
					warm.Done()
				}
			}()
			for i := range 5000 {
				k := fmt.Sprintf("c%d-%04d", w, i)
				err := put(k)
				if rpc.IsFenced(err) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[k] = true
				mu.Unlock()
				if i == 10 {
					warm.Done()
					warmed = true
				}
			}
		}()
	}
	warm.Wait()

	// A More page re-sends the (idempotent) install from the advanced
	// watermark.
	answer := map[string]bool{}
	req := rpc.Request{
		Method: rpc.MethodRangeFence, Namespace: ns, Start: []byte("b"), End: []byte("d"),
		Fence: true, Epoch: base.Epoch, Since: base.Watermark, Limit: 1024,
	}
	for {
		resp := n.Serve(req)
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		for _, r := range resp.Records {
			answer[string(r.Key)] = true
		}
		if !resp.More {
			break
		}
		req.Since = resp.Watermark
	}
	done.Wait()

	mu.Lock()
	defer mu.Unlock()
	var missing, extra []string
	for k := range acked {
		if !answer[k] {
			missing = append(missing, k)
		}
	}
	for k := range answer {
		if !acked[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("of %d acked writes the fence's answer misses %d (%q…); it carries %q…, outside the range or at its baseline",
			len(acked), len(missing), missing[:min(3, len(missing))], extra[:min(3, len(extra))])
	}
	if err := put("c-after-fence"); !rpc.IsFenced(err) {
		t.Fatalf("put after the fence = %v, want fence rejection", err)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 1 {
		t.Fatalf("node holds %d fences after the install, want 1", st.Fenced)
	}
}

func TestRangeSnapshotAndDelta(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	for i := 0; i < 25; i++ {
		resp := n.Serve(rpc.Request{
			Method: rpc.MethodPut, Namespace: ns,
			Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v"),
		})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
	}
	// Deleted keys ride the snapshot as tombstones.
	if resp := n.Serve(rpc.Request{Method: rpc.MethodDelete, Namespace: ns, Key: []byte("k03")}); resp.Error() != nil {
		t.Fatal(resp.Error())
	}

	// Page the snapshot.
	var got []record.Record
	var epoch, wm uint64
	cur := []byte(nil)
	for page := 0; ; page++ {
		resp := n.Serve(rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: ns, Start: cur, Limit: 10})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		if page == 0 {
			epoch, wm = resp.Epoch, resp.Watermark
		}
		got = append(got, resp.Records...)
		if len(resp.Records) < 10 {
			break
		}
		cur = append(resp.Records[len(resp.Records)-1].Key, 0x00)
	}
	if len(got) != 25 {
		t.Fatalf("snapshot carries %d records, want 25 (incl. tombstone)", len(got))
	}
	tombs := 0
	for _, r := range got {
		if r.Tombstone {
			tombs++
		}
	}
	if tombs != 1 {
		t.Fatalf("snapshot carries %d tombstones, want 1", tombs)
	}

	// Writes after the snapshot baseline surface in the delta.
	if resp := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: ns, Key: []byte("k01"), Value: []byte("v2")}); resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodRangeDelta, Namespace: ns, Epoch: epoch, Since: wm, Limit: 100})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 1 || string(resp.Records[0].Value) != "v2" {
		t.Fatalf("delta = %+v", resp.Records)
	}

	// An unusable baseline reports a snapshot gap.
	resp = n.Serve(rpc.Request{Method: rpc.MethodRangeDelta, Namespace: ns, Epoch: epoch + 1, Since: wm})
	if !rpc.IsSnapshotGap(resp.Error()) {
		t.Fatalf("bad epoch delta = %v, want snapshot gap", resp.Error())
	}

	// Limit -1: watermark probe without records (operator tooling).
	resp = n.Serve(rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: ns, Limit: -1})
	if resp.Error() != nil || len(resp.Records) != 0 || resp.Watermark == 0 {
		t.Fatalf("watermark probe = %+v", resp)
	}
}

func TestUnfenceSubtractsRange(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	put := func(key string) error {
		resp := n.Serve(rpc.Request{Method: rpc.MethodPut, Namespace: ns, Key: []byte(key), Value: []byte("v")})
		return resp.Error()
	}
	// Fence the whole keyspace, then lift only [b, m): the remainder
	// pieces stay fenced.
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Fence: true})
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Start: []byte("b"), End: []byte("m"), Fence: false})

	if e := put("c"); e != nil {
		t.Fatalf("put inside lifted span: %v", e)
	}
	if e := put("a"); !rpc.IsFenced(e) {
		t.Fatalf("left remainder unfenced: %v", e)
	}
	if e := put("x"); !rpc.IsFenced(e) {
		t.Fatalf("right remainder unfenced: %v", e)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 2 {
		t.Fatalf("fence count = %d, want 2 remainder pieces", st.Fenced)
	}
	// Lifting the remainders opens everything.
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, End: []byte("b"), Fence: false})
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Start: []byte("m"), Fence: false})
	if e := put("a"); e != nil {
		t.Fatalf("put after lifting remainders: %v", e)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 0 {
		t.Fatalf("fence count = %d after lifting everything", st.Fenced)
	}
}

// TestFenceSurvivesCallerBuffers: a fence installed and cut through a
// transport keeps the span it was sent, though the caller overwrites
// its Start and End buffers after each Call. The fence set keeps the
// request's slices, which the request owns.
func TestFenceSurvivesCallerBuffers(t *testing.T) {
	lt := rpc.NewLocalTransport()
	lt.Register("n1", newTestNode(t, "n1"))
	const ns = "tbl_users"
	start, end := []byte("b"), []byte("d")
	call := func(req rpc.Request) rpc.Response {
		t.Helper()
		resp, err := lt.Call("n1", req)
		if err == nil {
			err = resp.Error()
		}
		if err != nil && !rpc.IsFenced(err) {
			t.Fatalf("%s: %v", req.Method, err)
		}
		copy(start, "z")
		copy(end, "z")
		return resp
	}
	fenced := func(key string) bool {
		resp := call(rpc.Request{Method: rpc.MethodPut, Namespace: ns, Key: []byte(key), Value: []byte("v")})
		return rpc.IsFenced(resp.Error())
	}
	check := func(stage string, want map[string]bool) {
		t.Helper()
		for key, w := range want {
			if got := fenced(key); got != w {
				t.Errorf("%s: put %q fenced = %v, want %v", stage, key, got, w)
			}
		}
	}

	call(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Start: start, End: end, Fence: true})
	check("installed [b, d)", map[string]bool{"a": false, "b": true, "c": true, "d": false, "z": false})

	start, end = []byte("b"), []byte("c")
	call(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Start: start, End: end})
	check("lifted [b, c)", map[string]bool{"b": false, "bz": false, "c": true, "cz": true, "d": false, "z": false})
}
