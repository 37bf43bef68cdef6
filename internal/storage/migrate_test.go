package storage

import (
	"fmt"
	"testing"
	"unsafe"

	"scads/internal/record"
)

func openMemNS(t *testing.T) *Namespace {
	t.Helper()
	e, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ns, err := e.Namespace("tbl_users")
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestApplyWatermarkAdvancesPerAcceptedRecord(t *testing.T) {
	ns := openMemNS(t)
	_, seq0 := ns.ApplyWatermark()
	if seq0 != 0 {
		t.Fatalf("fresh namespace watermark = %d", seq0)
	}
	for i := 0; i < 5; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	epoch, seq := ns.ApplyWatermark()
	if seq != 5 {
		t.Fatalf("watermark = %d, want 5", seq)
	}
	// A rejected (superseded) record does not advance the watermark.
	if err := ns.Apply(record.Record{Key: []byte("k00"), Value: []byte("old"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, after := ns.ApplyWatermark(); after != seq {
		t.Fatalf("superseded apply advanced watermark %d -> %d", seq, after)
	}
	if epoch == 0 {
		t.Fatal("epoch not assigned")
	}
}

func TestScanSinceReturnsChangesAfterWatermark(t *testing.T) {
	ns := openMemNS(t)
	for i := 0; i < 10; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	epoch, wm := ns.ApplyWatermark()

	if _, err := ns.Put([]byte("k03"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Put([]byte("k99"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Delete([]byte("k07")); err != nil {
		t.Fatal(err)
	}

	recs, newWM, _, ok, err := ns.ScanSince(epoch, wm, nil, nil, 0)
	if err != nil || !ok {
		t.Fatalf("ScanSince: ok=%v err=%v", ok, err)
	}
	byKey := map[string]record.Record{}
	for _, r := range recs {
		byKey[string(r.Key)] = r
	}
	if len(byKey) != 3 {
		t.Fatalf("delta carries %d keys, want 3: %v", len(byKey), byKey)
	}
	if string(byKey["k03"].Value) != "v1" {
		t.Fatalf("k03 = %q", byKey["k03"].Value)
	}
	if !byKey["k07"].Tombstone {
		t.Fatal("delete missing its tombstone in the delta")
	}
	if _, there := byKey["k99"]; !there {
		t.Fatal("new key missing from delta")
	}
	if _, cur := ns.ApplyWatermark(); newWM != cur {
		t.Fatalf("returned watermark %d != current %d", newWM, cur)
	}

	// Nothing changed since: empty delta, watermark stable.
	recs, again, _, ok, err := ns.ScanSince(epoch, newWM, nil, nil, 0)
	if err != nil || !ok || len(recs) != 0 || again != newWM {
		t.Fatalf("idle delta: recs=%d wm=%d ok=%v err=%v", len(recs), again, ok, err)
	}
}

func TestScanSincePagesWithLimit(t *testing.T) {
	ns := openMemNS(t)
	epoch, wm := ns.ApplyWatermark()
	for i := 0; i < 9; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	pages := 0
	for {
		recs, newWM, _, ok, err := ns.ScanSince(epoch, wm, nil, nil, 4)
		if err != nil || !ok {
			t.Fatalf("page: ok=%v err=%v", ok, err)
		}
		if len(recs) == 0 {
			break
		}
		pages++
		for _, r := range recs {
			seen[string(r.Key)] = true
		}
		wm = newWM
	}
	if len(seen) != 9 || pages < 3 {
		t.Fatalf("paged delta saw %d keys in %d pages", len(seen), pages)
	}
}

func TestScanSinceRangeFilter(t *testing.T) {
	ns := openMemNS(t)
	epoch, wm := ns.ApplyWatermark()
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, err := ns.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	recs, newWM, _, ok, err := ns.ScanSince(epoch, wm, []byte("b"), []byte("d"), 0)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(recs) != 2 {
		t.Fatalf("range delta carries %d records, want 2", len(recs))
	}
	// Out-of-range entries still advance the watermark: the next call
	// must not resend anything.
	if recs2, _, _, _, _ := ns.ScanSince(epoch, newWM, []byte("b"), []byte("d"), 0); len(recs2) != 0 {
		t.Fatalf("watermark did not cover out-of-range entries: %d resent", len(recs2))
	}
}

func TestScanSinceRejectsUnusableBaselines(t *testing.T) {
	ns := openMemNS(t)
	epoch, _ := ns.ApplyWatermark()
	if _, err := ns.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Wrong epoch (node restarted between snapshot and delta).
	if _, _, _, ok, _ := ns.ScanSince(epoch+1, 0, nil, nil, 0); ok {
		t.Fatal("wrong epoch accepted")
	}
	// Future watermark.
	if _, _, _, ok, _ := ns.ScanSince(epoch, 99, nil, nil, 0); ok {
		t.Fatal("future watermark accepted")
	}
	// Watermark older than the retained log: overflow the apply log.
	big := make([]record.Record, 4096)
	for b := 0; b < (maxApplyLog/len(big))+2; b++ {
		for i := range big {
			big[i] = record.Record{
				Key:     []byte(fmt.Sprintf("k%05d", i)),
				Value:   []byte("v"),
				Version: uint64(b*len(big) + i + 10),
			}
		}
		if err := ns.ApplyBatch(big); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, ok, _ := ns.ScanSince(epoch, 1, nil, nil, 0); ok {
		t.Fatal("pre-floor watermark accepted after apply-log overflow")
	}
	// A current watermark still works.
	_, cur := ns.ApplyWatermark()
	if _, _, _, ok, err := ns.ScanSince(epoch, cur, nil, nil, 0); !ok || err != nil {
		t.Fatalf("current watermark rejected: ok=%v err=%v", ok, err)
	}
}

// The apply log shifts in place when it overflows: its array, once
// grown, is kept, however often the log overflows.
func TestApplyLogKeepsItsArray(t *testing.T) {
	ns := openMemNS(t)
	batch := make([]record.Record, 1024)
	var array *applyEntry
	overflows := 0
	for v := uint64(1); overflows < 3; {
		for i := range batch {
			batch[i] = record.Record{Key: []byte(fmt.Sprintf("k%05d", i)), Value: []byte("v"), Version: v}
			v++
		}
		floor := ns.applyFloor
		if err := ns.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if ns.applyFloor == floor {
			continue
		}
		if overflows++; overflows == 1 {
			array = unsafe.SliceData(ns.applyLog)
		} else if unsafe.SliceData(ns.applyLog) != array {
			t.Fatalf("overflow %d moved the apply log to a new array", overflows)
		}
		if len(ns.applyLog) > maxApplyLog || cap(ns.applyLog) > 2*maxApplyLog {
			t.Fatalf("overflow %d: apply log len %d cap %d", overflows, len(ns.applyLog), cap(ns.applyLog))
		}
	}
}

func TestTruncateRangeInMemory(t *testing.T) {
	ns := openMemNS(t)
	for i := 0; i < 20; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := ns.TruncateRange([]byte("k05"), []byte("k15"))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 10 {
		t.Fatalf("removed %d, want 10", removed)
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		_, found, err := ns.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		wantFound := i < 5 || i >= 15
		if found != wantFound {
			t.Fatalf("k%02d found=%v want %v", i, found, wantFound)
		}
	}
	// Truncated records are gone, not tombstoned: a re-install with the
	// original (old) versions must land.
	if err := ns.Apply(record.Record{Key: []byte("k07"), Value: []byte("back"), Version: 2}); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := ns.Get([]byte("k07")); !found || string(v) != "back" {
		t.Fatalf("re-install after truncate: found=%v v=%q", found, v)
	}
}

func TestTruncateRangePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := e.Namespace("tbl_users")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Half the data in an SSTable, half in the memtable + WAL.
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 60; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ns.TruncateRange([]byte("k10"), []byte("k40")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery (SSTables + WAL) must not resurrect truncated records.
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ns2, err := e2.Namespace("tbl_users")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		_, found, err := ns2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		wantFound := i < 10 || i >= 40
		if found != wantFound {
			t.Fatalf("after reopen: k%02d found=%v want %v", i, found, wantFound)
		}
	}
}

// TestScanSincePagesWithByteBudget: a delta page of large values must
// stop at the byte budget — not assemble a page past the RPC frame
// cap — while the advancing watermark lets callers page to completion
// exactly once per record.
func TestScanSincePagesWithByteBudget(t *testing.T) {
	ns := openMemNS(t)
	epoch, wm := ns.ApplyWatermark()
	const count, valSize = 30, 256 << 10 // ~7.5 MiB of values, budget 4 MiB
	big := make([]byte, valSize)
	for i := 0; i < count; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("big%02d", i)), big); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	pages := 0
	for {
		recs, newWM, more, ok, err := ns.ScanSince(epoch, wm, nil, nil, count+10)
		if err != nil || !ok {
			t.Fatalf("page: ok=%v err=%v", ok, err)
		}
		pages++
		bytes := 0
		for _, r := range recs {
			if seen[string(r.Key)] {
				t.Fatalf("key %q served twice", r.Key)
			}
			seen[string(r.Key)] = true
			bytes += r.MarshaledSize()
		}
		// One record of grace past the budget is allowed (checked
		// between records); far more means the budget is not applied.
		if bytes > scanSinceByteBudget+2*valSize {
			t.Fatalf("page carries %d encoded bytes, budget %d", bytes, scanSinceByteBudget)
		}
		wm = newWM
		if !more {
			break
		}
	}
	if len(seen) != count || pages < 2 {
		t.Fatalf("byte-budget paging saw %d keys in %d pages", len(seen), pages)
	}
}

// TestScanSinceOutOfRangeChurnIsTerminal pins the delta termination
// contract: writes to *other* ranges of the namespace advance the
// returned watermark but must report more=false once the retained log
// is walked — the migration manager pages exactly while more is set,
// so anything else would spin the fenced final drain for as long as
// the namespace takes traffic anywhere.
func TestScanSinceOutOfRangeChurnIsTerminal(t *testing.T) {
	ns := openMemNS(t)
	epoch, wm := ns.ApplyWatermark()
	for i := 0; i < 200; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("a%03d", i)), []byte("churn")); err != nil {
			t.Fatal(err)
		}
	}
	recs, newWM, more, ok, err := ns.ScanSince(epoch, wm, []byte("b"), []byte("d"), 10)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(recs) != 0 {
		t.Fatalf("out-of-range churn returned %d records", len(recs))
	}
	if more {
		t.Fatal("more=true with the retained log fully walked — delta paging would never terminate")
	}
	if newWM == wm {
		t.Fatal("watermark did not advance past out-of-range entries")
	}
}
