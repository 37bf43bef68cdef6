package sstable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"scads/internal/record"
)

func buildTable(t testing.TB, path string, recs []record.Record) *Reader {
	t.Helper()
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// whole is the source a compaction reads a table through.
func whole(r *Reader) Source { return r.Range(nil, nil, false) }

func seqRecords(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Key:     []byte(fmt.Sprintf("key-%06d", i)),
			Value:   []byte(fmt.Sprintf("value-%d", i)),
			Version: uint64(i + 1),
		}
	}
	return recs
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := seqRecords(100)
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), recs)
	defer r.Close()

	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	first, last := r.Bounds()
	if string(first) != "key-000000" || string(last) != "key-000099" {
		t.Fatalf("Bounds = %q..%q", first, last)
	}
	for _, want := range recs {
		got, ok, err := r.Get(want.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got.Value, want.Value) || got.Version != want.Version {
			t.Fatalf("Get(%q) = %+v,%v", want.Key, got, ok)
		}
	}
}

func TestGetMissing(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(100))
	defer r.Close()
	for _, k := range []string{"", "aaa", "key-000050x", "zzz"} {
		if _, ok, err := r.Get([]byte(k)); err != nil || ok {
			t.Fatalf("Get(%q) = ok=%v err=%v, want miss", k, ok, err)
		}
	}
}

func TestScanRange(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(200))
	defer r.Close()
	var got []string
	err := r.Scan([]byte("key-000050"), []byte("key-000060"), func(rec record.Record) bool {
		got = append(got, string(rec.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "key-000050" || got[9] != "key-000059" {
		t.Fatalf("Scan = %v", got)
	}
}

func TestScanEarlyStopAndUnbounded(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(50))
	defer r.Close()
	n := 0
	if err := r.Scan(nil, nil, func(record.Record) bool { n++; return n < 7 }); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("visited %d, want 7", n)
	}
	n = 0
	if err := r.Scan(nil, nil, func(record.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("unbounded scan visited %d, want 50", n)
	}
}

func TestEmptyTable(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), nil)
	defer r.Close()
	if r.Count() != 0 {
		t.Fatalf("Count = %d", r.Count())
	}
	if _, ok, err := r.Get([]byte("any")); ok || err != nil {
		t.Fatalf("Get on empty = %v,%v", ok, err)
	}
	if err := r.Scan(nil, nil, func(record.Record) bool { t.Fatal("visited record in empty table"); return false }); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "t.sst"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add(record.Record{Key: []byte("b"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(record.Record{Key: []byte("a"), Version: 1}); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := w.Add(record.Record{Key: []byte("b"), Version: 2}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestLargeValuesCrossChunks(t *testing.T) {
	// Values bigger than the 64 KiB scan chunk force the grow path.
	recs := []record.Record{
		{Key: []byte("big-1"), Value: bytes.Repeat([]byte("a"), 100<<10), Version: 1},
		{Key: []byte("big-2"), Value: bytes.Repeat([]byte("b"), 200<<10), Version: 2},
		{Key: []byte("small"), Value: []byte("s"), Version: 3},
	}
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), recs)
	defer r.Close()
	for _, want := range recs {
		got, ok, err := r.Get(want.Key)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", want.Key, ok, err)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("Get(%q): value mismatch (%d vs %d bytes)", want.Key, len(got.Value), len(want.Value))
		}
	}
	n := 0
	if err := r.Scan(nil, nil, func(record.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("scan visited %d, want 3", n)
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	r := buildTable(t, path, seqRecords(10))
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the magic.
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt table opened successfully")
	}
	// Too-short file.
	if err := os.WriteFile(path, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("tiny file opened successfully")
	}
}

func TestTombstonesSurviveRoundTrip(t *testing.T) {
	recs := []record.Record{
		{Key: []byte("a"), Value: []byte("1"), Version: 1},
		{Key: []byte("b"), Version: 2, Tombstone: true},
	}
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), recs)
	defer r.Close()
	got, ok, err := r.Get([]byte("b"))
	if err != nil || !ok || !got.Tombstone {
		t.Fatalf("tombstone lost: %+v ok=%v err=%v", got, ok, err)
	}
}

// Property: any sorted unique key set round-trips through a table.
func TestQuickTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(keys map[string]string) bool {
		n++
		path := filepath.Join(dir, fmt.Sprintf("q%d.sst", n))
		var recs []record.Record
		for k, v := range keys {
			recs = append(recs, record.Record{Key: []byte(k), Value: []byte(v), Version: 1})
		}
		sortRecords(recs)
		w, err := NewWriter(path)
		if err != nil {
			return false
		}
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				return false
			}
		}
		if err := w.Finish(); err != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		for k, v := range keys {
			got, ok, err := r.Get([]byte(k))
			if err != nil || !ok || string(got.Value) != v {
				return false
			}
		}
		return r.Count() == uint64(len(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func sortRecords(recs []record.Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && bytes.Compare(recs[j].Key, recs[j-1].Key) < 0; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// TestReadAllocs pins what the uncached read path allocates over a
// 10 000-record table: a point get 3 times, a 100-record scan 6.
func TestReadAllocs(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i*97))
	}
	i := 0
	get := testing.AllocsPerRun(200, func() {
		if _, ok, err := r.Get(keys[i%len(keys)]); !ok || err != nil {
			t.Fatalf("miss on %q: %v", keys[i%len(keys)], err)
		}
		i++
	})
	scan := testing.AllocsPerRun(200, func() {
		n := 0
		if err := r.Scan([]byte("key-005000"), nil, func(record.Record) bool {
			n++
			return n < 100
		}); err != nil || n != 100 {
			t.Fatalf("scan = %d records, %v", n, err)
		}
	})
	if get > 3 || scan > 6 {
		t.Errorf("get allocates %.0f times, want <= 3; scan of 100 %.0f, want <= 6", get, scan)
	}
}

func BenchmarkGet(b *testing.B) {
	r := buildTable(b, filepath.Join(b.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i%10000))
		if _, ok, err := r.Get(key); !ok || err != nil {
			b.Fatalf("miss on %q: %v", key, err)
		}
	}
}

func BenchmarkScan100(b *testing.B) {
	r := buildTable(b, filepath.Join(b.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_ = r.Scan([]byte("key-005000"), nil, func(record.Record) bool {
			n++
			return n < 100
		})
	}
}
