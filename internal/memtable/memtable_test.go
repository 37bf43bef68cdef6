package memtable

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"scads/internal/record"
)

func rec(key, val string, ver uint64) record.Record {
	return record.Record{Key: []byte(key), Value: []byte(val), Version: ver}
}

func TestPutGet(t *testing.T) {
	m := New(1)
	if _, ok := m.Get([]byte("missing")); ok {
		t.Fatal("Get on empty table returned ok")
	}
	m.Put(rec("a", "1", 1))
	got, ok := m.Get([]byte("a"))
	if !ok || string(got.Value) != "1" {
		t.Fatalf("Get = %v,%v", got, ok)
	}
}

func TestLastWriteWins(t *testing.T) {
	m := New(1)
	if !m.Put(rec("k", "old", 5)) {
		t.Fatal("initial put rejected")
	}
	if m.Put(rec("k", "stale", 3)) {
		t.Fatal("stale write accepted")
	}
	got, _ := m.Get([]byte("k"))
	if string(got.Value) != "old" {
		t.Fatalf("stale write overwrote: %q", got.Value)
	}
	if !m.Put(rec("k", "new", 9)) {
		t.Fatal("newer write rejected")
	}
	got, _ = m.Get([]byte("k"))
	if string(got.Value) != "new" || got.Version != 9 {
		t.Fatalf("newer write not applied: %+v", got)
	}
}

// MinVersion is a floor under everything the table holds: it follows
// the lowest version stored, replaced records included, and ignores
// what Put refused.
func TestMinVersion(t *testing.T) {
	m := New(1)
	if got := m.MinVersion(); got != math.MaxUint64 {
		t.Fatalf("empty table: MinVersion = %d", got)
	}
	m.Put(rec("a", "v", 7))
	m.Put(rec("b", "v", 5))
	m.Put(rec("b", "refused", 2))
	if got := m.MinVersion(); got != 5 {
		t.Fatalf("MinVersion = %d, want 5 (version 2 was not stored)", got)
	}
	m.Put(rec("b", "replaces", 9))
	m.Put(rec("c", "v", 3))
	m.DeleteRange([]byte("c"), nil)
	if got := m.MinVersion(); got != 3 {
		t.Fatalf("MinVersion = %d, want 3", got)
	}
}

func TestDeleteTombstone(t *testing.T) {
	m := New(1)
	m.Put(rec("k", "v", 1))
	if !m.Put(record.Record{Key: []byte("k"), Version: 2, Tombstone: true}) {
		t.Fatal("delete rejected")
	}
	got, ok := m.Get([]byte("k"))
	if !ok || !got.Tombstone {
		t.Fatalf("tombstone not visible: %+v ok=%v", got, ok)
	}
	// A write older than the tombstone must not resurrect the key.
	if m.Put(rec("k", "zombie", 1)) {
		t.Fatal("zombie write accepted over newer tombstone")
	}
	got, _ = m.Get([]byte("k"))
	if !got.Tombstone {
		t.Fatal("tombstone lost")
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	m := New(7)
	keys := []string{"d", "b", "a", "c", "e"}
	for i, k := range keys {
		m.Put(rec(k, k, uint64(i+1)))
	}
	var got []string
	m.Scan([]byte("b"), []byte("e"), func(r record.Record) bool {
		got = append(got, string(r.Key))
		return true
	})
	want := []string{"b", "c", "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
	// Unbounded scan sees everything in order.
	got = nil
	m.Scan(nil, nil, func(r record.Record) bool {
		got = append(got, string(r.Key))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint([]string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("full Scan = %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	m := New(1)
	for i := 0; i < 10; i++ {
		m.Put(rec(fmt.Sprintf("k%02d", i), "v", 1))
	}
	n := 0
	m.Scan(nil, nil, func(record.Record) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestLenAndBytes(t *testing.T) {
	m := New(1)
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatal("empty table has nonzero size")
	}
	m.Put(rec("a", "xx", 1))
	m.Put(rec("b", "yy", 1))
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	b1 := m.Bytes()
	if b1 <= 0 {
		t.Fatal("Bytes not positive")
	}
	// Overwrite with a larger value grows Bytes but not Len.
	m.Put(rec("a", "xxxxxxxxxx", 2))
	if m.Len() != 2 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
	if m.Bytes() <= b1 {
		t.Fatal("Bytes did not grow after larger overwrite")
	}
}

func TestAllSorted(t *testing.T) {
	m := New(42)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%06d", r.Intn(100000))
		m.Put(rec(k, "v", uint64(i+1)))
	}
	all := m.All()
	for i := 1; i < len(all); i++ {
		if bytes.Compare(all[i-1].Key, all[i].Key) >= 0 {
			t.Fatalf("All not strictly sorted at %d", i)
		}
	}
	if len(all) != m.Len() {
		t.Fatalf("All returned %d records, Len = %d", len(all), m.Len())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	m := New(3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Put(rec(fmt.Sprintf("w%d-k%03d", w, i), "v", uint64(i+1)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.Scan(nil, nil, func(record.Record) bool { return true })
				m.Get([]byte("w0-k000"))
			}
		}()
	}
	wg.Wait()
	if m.Len() != 4*200 {
		t.Fatalf("Len = %d, want 800", m.Len())
	}
}

// Property: for any set of (key, version) writes, the memtable holds
// exactly the highest-version record per key.
func TestQuickLWWConvergence(t *testing.T) {
	type write struct {
		Key byte
		Ver uint8
	}
	f := func(writes []write) bool {
		m := New(11)
		want := map[byte]uint64{}
		for _, w := range writes {
			ver := uint64(w.Ver) + 1
			m.Put(record.Record{
				Key:     []byte{w.Key},
				Value:   []byte(fmt.Sprintf("v%d", ver)),
				Version: ver,
			})
			if ver > want[w.Key] {
				want[w.Key] = ver
			}
		}
		if m.Len() != len(want) {
			return false
		}
		for k, ver := range want {
			got, ok := m.Get([]byte{k})
			if !ok || got.Version != ver {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: scan output is always sorted and within bounds.
func TestQuickScanSorted(t *testing.T) {
	f := func(keys [][]byte, start, end []byte) bool {
		if bytes.Compare(start, end) > 0 {
			start, end = end, start
		}
		m := New(5)
		for i, k := range keys {
			m.Put(record.Record{Key: k, Value: []byte("v"), Version: uint64(i + 1)})
		}
		var prev []byte
		ok := true
		m.Scan(start, end, func(r record.Record) bool {
			if prev != nil && bytes.Compare(prev, r.Key) >= 0 {
				ok = false
			}
			if bytes.Compare(r.Key, start) < 0 || (end != nil && bytes.Compare(r.Key, end) >= 0) {
				ok = false
			}
			prev = append(prev[:0], r.Key...)
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	m := New(1)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user:%08d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(record.Record{Key: keys[i%1024], Value: []byte("payload"), Version: uint64(i + 1)})
	}
}

func BenchmarkGet(b *testing.B) {
	m := New(1)
	const n = 10000
	for i := 0; i < n; i++ {
		m.Put(rec(fmt.Sprintf("user:%08d", i), "payload", 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("user:%08d", i%n)))
	}
}

func BenchmarkScan100(b *testing.B) {
	m := New(1)
	const n = 10000
	for i := 0; i < n; i++ {
		m.Put(rec(fmt.Sprintf("user:%08d", i), "payload", 1))
	}
	start := []byte("user:00005000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		m.Scan(start, nil, func(record.Record) bool {
			cnt++
			return cnt < 100
		})
	}
}

func TestDeleteRangeUnlinksEntries(t *testing.T) {
	m := New(1)
	for i := 0; i < 10; i++ {
		m.Put(rec(fmt.Sprintf("k%02d", i), "v", uint64(i+1)))
	}
	wantBytes := m.Bytes()
	var middle int64
	m.Scan([]byte("k03"), []byte("k07"), func(r record.Record) bool {
		middle += int64(r.MemSize())
		return true
	})

	if removed := m.DeleteRange([]byte("k03"), []byte("k07")); removed != 4 {
		t.Fatalf("removed %d, want 4", removed)
	}
	if m.Len() != 6 {
		t.Fatalf("Len = %d, want 6", m.Len())
	}
	if m.Bytes() != wantBytes-middle {
		t.Fatalf("Bytes = %d, want %d", m.Bytes(), wantBytes-middle)
	}
	var keys []string
	m.Scan(nil, nil, func(r record.Record) bool {
		keys = append(keys, string(r.Key))
		return true
	})
	want := []string{"k00", "k01", "k02", "k07", "k08", "k09"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	// Removed keys are gone, not shadowed: a lower-versioned record
	// lands again.
	if !m.Put(rec("k04", "back", 1)) {
		t.Fatal("re-insert after DeleteRange rejected")
	}
}

func TestDeleteRangeOpenBounds(t *testing.T) {
	m := New(1)
	for i := 0; i < 6; i++ {
		m.Put(rec(fmt.Sprintf("k%02d", i), "v", uint64(i+1)))
	}
	if removed := m.DeleteRange(nil, nil); removed != 6 {
		t.Fatalf("removed %d, want 6", removed)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d after full-range delete", m.Len(), m.Bytes())
	}
}
