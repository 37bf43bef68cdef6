package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// pinnedRecords is a deterministic ~540 KiB table: 2 000 records with
// values of 0–399 bytes, a tombstone every 50th, and one 96 KiB value —
// larger than the writer's buffer — in the middle.
func pinnedRecords() []record.Record {
	recs := make([]record.Record, 2000)
	for i := range recs {
		rec := record.Record{Key: []byte(fmt.Sprintf("row-%06d", i)), Version: uint64(i)*7 + 3}
		switch {
		case i == 1000:
			rec.Value = bytes.Repeat([]byte("0123456789abcdef"), 6<<10)
		case i%50 == 49:
			rec.Tombstone = true
		default:
			rec.Value = make([]byte, i*37%400)
			for j := range rec.Value {
				rec.Value[j] = byte(i*31 + j*7)
			}
		}
		recs[i] = rec
	}
	return recs
}

// pinnedTableSHA256 is the digest of pinnedRecords' table file. The
// on-disk format is fixed: a change to how the writer buffers its
// output must not change one byte of it.
const pinnedTableSHA256 = "2b58479c6acd190d1182e02597664b1838955908277d734922f8cdb2d1d0e302"

func TestTableBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	recs := pinnedRecords()
	r := buildTable(t, path, recs)
	defer r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 300<<10 {
		t.Fatalf("table is %d bytes, want >= 300 KiB", len(data))
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != pinnedTableSHA256 {
		t.Fatalf("table SHA-256 = %x, want %s", sum, pinnedTableSHA256)
	}
	for _, want := range recs {
		got, ok, err := r.Get(want.Key)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", want.Key, ok, err)
		}
		if !bytes.Equal(got.Value, want.Value) || got.Version != want.Version || got.Tombstone != want.Tombstone {
			t.Fatalf("Get(%q) = %d-byte value v%d tomb=%v", want.Key, len(got.Value), got.Version, got.Tombstone)
		}
	}
	i := 0
	if err := r.Scan(nil, nil, func(got record.Record) bool {
		want := recs[i]
		if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) || got.Version != want.Version {
			t.Fatalf("scan record %d = %q, want %q", i, got.Key, want.Key)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Fatalf("scan visited %d records, want %d", i, len(recs))
	}
}

// TestDecodedBlockIsExact pins that a block in memory holds exactly its
// bytes and one offset per record, whatever the record size: the block
// cache charges Size, so spare capacity is memory it never counts.
func TestDecodedBlockIsExact(t *testing.T) {
	for _, size := range []int{16, 230, 3 << 10} {
		recs := make([]record.Record, 200)
		for i := range recs {
			recs[i] = record.Record{Key: []byte(fmt.Sprintf("k-%06d", i)), Value: bytes.Repeat([]byte{'v'}, size), Version: 1}
		}
		r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), recs)
		total := 0
		for b := 0; b < r.NumBlocks(); b++ {
			got, err := r.decodeBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			_, length := r.blockExtent(b)
			total += got.Len()
			if cap(got.data) != len(got.data) || uint64(len(got.data)) != length || cap(got.offs) != len(got.offs) {
				t.Fatalf("%d-byte values, block %d: %d of %d bytes (extent %d), %d of %d offsets",
					size, b, len(got.data), cap(got.data), length, len(got.offs), cap(got.offs))
			}
			if want := cap(got.data) + 4*cap(got.offs); got.Size() != want {
				t.Fatalf("%d-byte values, block %d: Size = %d, holds %d", size, b, got.Size(), want)
			}
			for i := 0; i < got.Len(); i++ {
				if rec := got.Record(i); !bytes.Equal(rec.Key, recs[total-got.Len()+i].Key) || len(rec.Value) != size {
					t.Fatalf("%d-byte values, block %d record %d = %q with %d-byte value", size, b, i, rec.Key, len(rec.Value))
				}
			}
		}
		if total != len(recs) {
			t.Errorf("%d-byte values: blocks hold %d records, want %d", size, total, len(recs))
		}
		r.Close()
	}
}

// A block is checked whole when it is read: a bad CRC in its last frame
// fails a get of its first key and a scan that stops after one record,
// through a block cache or not, and a compaction over the table, which
// then leaves no output behind.
func TestBlockVerifiedAtLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	r := buildTable(t, path, seqRecords(1000))
	if r.NumBlocks() < 3 {
		t.Fatalf("%d blocks, want >= 3", r.NumBlocks())
	}
	// Block 1: Open checks only the edge blocks.
	off, length := r.blockExtent(1)
	b, err := r.decodeBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	first := b.Record(0).Key
	last := off + uint64(b.offs[b.Len()-1])
	if last >= off+length || last <= off {
		t.Fatalf("last frame at %d, outside block 1 [%d, %d) or at its start", last, off, off+length)
	}
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[last] ^= 0xFF // the last frame's CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cache := range []BlockCache{nil, newCountingCache(), missCache{false}} {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r.SetBlockCache(cache)
		if _, _, err := r.Get(first); !errors.Is(err, record.ErrCorrupt) {
			t.Errorf("cache %T: Get(%q) = %v, want ErrCorrupt", cache, first, err)
		}
		n := 0
		if err := r.Scan(first, nil, func(record.Record) bool { n++; return false }); !errors.Is(err, record.ErrCorrupt) || n != 0 {
			t.Errorf("cache %T: a one-record scan from %q visited %d, err %v, want ErrCorrupt", cache, first, n, err)
		}
		r.Close()
	}
	r, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Merge(filepath.Join(dir, "merged.sst"), MergeOptions{}, whole(r)); !errors.Is(err, record.ErrCorrupt) {
		t.Errorf("a compaction over the corrupt table = %v, want ErrCorrupt", err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"t.sst"}) {
		t.Errorf("after the failed compaction the directory holds %v, want only t.sst", names)
	}
}

// A frame length field that runs past the block, or lands mid-frame,
// fails the read with ErrCorrupt; it never panics.
func TestCorruptFrameLengthRejected(t *testing.T) {
	for name, length := range map[string]uint32{"too large": 0xFFFFFFF0, "mid-frame": 10} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.sst")
			recs := seqRecords(1000)
			r := buildTable(t, path, recs)
			if r.NumBlocks() < 3 {
				t.Fatalf("%d blocks, want >= 3", r.NumBlocks())
			}
			// Corrupt the first frame of block 1: Open checks only the edge
			// blocks, so the damage surfaces at the read.
			off, _ := r.blockExtent(1)
			key := r.index[1].key
			r.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(data[off+4:], length)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err = Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, _, err := r.Get(key); !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("Get on a corrupt block = %v, want ErrCorrupt", err)
			}
		})
	}
}
