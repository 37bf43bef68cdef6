package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"scads/internal/record"
)

// mergeCase is one input of the merge-equivalence property: a stack of
// sorted sources (newest first) with per-source exclusion ranges, read
// over [start, end) until stopAfter records (0: to the end).
type mergeCase struct {
	name           string
	sources        [][]record.Record
	excluded       map[int][][2]string // source -> [start, end) key ranges hidden from it
	start, end     []byte
	dropTombstones bool
	keepFrom       uint64 // with dropTombstones: tombstones from this version up stay (0: none)
	stopAfter      int
}

// keepTombstone is the case's MergeOptions.KeepTombstone.
func (c mergeCase) keepTombstone() func(record.Record) bool {
	if c.keepFrom == 0 {
		return nil
	}
	return func(rec record.Record) bool { return rec.Version >= c.keepFrom }
}

func (c mergeCase) drop(src int, rec record.Record) bool {
	for _, x := range c.excluded[src] {
		if string(rec.Key) >= x[0] && string(rec.Key) < x[1] {
			return true
		}
	}
	return false
}

// reference is the last-write-wins answer worked out with a map: every
// record not excluded from its source contends, the superseding version
// wins whatever its stack position, and the survivors inside the bounds
// come back sorted.
func (c mergeCase) reference() []record.Record {
	best := map[string]record.Record{}
	for i, src := range c.sources {
		for _, r := range src {
			if cur, ok := best[string(r.Key)]; !c.drop(i, r) && (!ok || r.Supersedes(cur)) {
				best[string(r.Key)] = r
			}
		}
	}
	var out []record.Record
	for _, r := range best {
		inRange := bytes.Compare(r.Key, c.start) >= 0 && (c.end == nil || bytes.Compare(r.Key, c.end) < 0)
		kept := c.keepFrom > 0 && r.Version >= c.keepFrom
		if inRange && !(c.dropTombstones && r.Tombstone && !kept) {
			out = append(out, r)
		}
	}
	sortRecords(out)
	if c.stopAfter > 0 && len(out) > c.stopAfter {
		out = out[:c.stopAfter]
	}
	return out
}

func kv(key, val string, ver uint64) record.Record {
	return record.Record{Key: []byte(key), Value: []byte(val), Version: ver}
}

func tomb(key string, ver uint64) record.Record {
	return record.Record{Key: []byte(key), Version: ver, Tombstone: true}
}

func fixedMergeCases() []mergeCase {
	var newer, older, evens, odds []record.Record
	for i := 0; i < 15; i++ {
		if i < 10 {
			newer = append(newer, kv(fmt.Sprintf("k%02d", i), "new", 100))
		}
		if i >= 5 {
			older = append(older, kv(fmt.Sprintf("k%02d", i), "old", 1))
		}
	}
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			evens = append(evens, kv(fmt.Sprintf("k-%02d", i), "old", uint64(1+i)))
		} else {
			odds = append(odds, kv(fmt.Sprintf("k-%02d", i), "mid", uint64(100+i)))
		}
	}
	memtable := []record.Record{kv("k-04", "new", 200), tomb("k-07", 201)}
	return []mergeCase{
		{name: "two overlapping tables", sources: [][]record.Record{newer, older}},
		{name: "tombstone shadows an older value", dropTombstones: true, sources: [][]record.Record{
			{kv("a", "v", 1), tomb("b", 5)},
			{kv("b", "shadowed", 1), kv("c", "w", 1)},
		}},
		{name: "a kept tombstone outlives the merge that drops the older one", dropTombstones: true, keepFrom: 5, sources: [][]record.Record{
			{tomb("a", 4), tomb("b", 5)},
			{kv("a", "shadowed", 1), kv("b", "shadowed", 1)},
		}},
		{name: "older table holds the newer version", sources: [][]record.Record{
			{kv("k", "stale", 1)},
			{kv("k", "fresh", 9)},
		}},
		{name: "equal records at two stack positions", sources: [][]record.Record{
			{kv("k", "same", 3)},
			{kv("k", "same", 3)},
		}},
		{name: "empty inputs", sources: [][]record.Record{nil, nil}},
		{name: "memtable over two flushed layers", dropTombstones: true, start: []byte("k-00"), end: []byte("k-20"),
			sources: [][]record.Record{memtable, odds, evens}},
		{name: "early stop", stopAfter: 10, sources: [][]record.Record{seqRecords(100)}},
		{name: "truncation hides a table's range, not the memtable's", excluded: map[int][][2]string{1: {{"k-05", "k-11"}}},
			sources: [][]record.Record{memtable, odds, evens}},
	}
}

// randomMergeCase draws a stack whose sources collide on keys, on
// versions and on whole records, so that version order, the stack-order
// tie-break, tombstones, exclusions, bounds and the early stop all meet.
// With perBlock, every value is at least a block long, so each record
// fills a block of its own: a source moves to a new block with every
// record it yields, and the record it yielded last aliases a block it
// has moved past.
func randomMergeCase(rng *rand.Rand, perBlock bool) mergeCase {
	minValue, maxRecords := 0, 150
	if perBlock {
		minValue, maxRecords = blockTargetBytes, 40
	}
	key := func() string { return fmt.Sprintf("key-%03d", rng.Intn(120)) }
	c := mergeCase{
		sources:        make([][]record.Record, 1+rng.Intn(5)),
		excluded:       map[int][][2]string{},
		dropTombstones: rng.Intn(2) == 0,
		keepFrom:       uint64(rng.Intn(5)),
	}
	for i := range c.sources {
		byKey := map[string]record.Record{}
		for n := rng.Intn(maxRecords); n > 0; n-- {
			r := kv(key(), string(bytes.Repeat([]byte{byte('a' + rng.Intn(2))}, minValue+1+rng.Intn(300))), uint64(1+rng.Intn(4)))
			if rng.Intn(5) == 0 {
				r = tomb(string(r.Key), r.Version)
			}
			byKey[string(r.Key)] = r
		}
		for _, r := range byKey {
			c.sources[i] = append(c.sources[i], r)
		}
		sortRecords(c.sources[i])
		for n := rng.Intn(3); n > 0 && i > 0; n-- {
			a, b := key(), key()
			if a > b {
				a, b = b, a
			}
			c.excluded[i] = append(c.excluded[i], [2]string{a, b})
		}
	}
	if rng.Intn(2) == 0 {
		c.start = []byte(key())
	}
	if rng.Intn(2) == 0 {
		c.end = []byte(key())
	}
	if rng.Intn(3) == 0 {
		c.stopAfter = 1 + rng.Intn(40)
	}
	return c
}

// The one merge, checked against the map reference through both of its
// consumers: a scan (the iterator drained over in-memory slices and
// table ranges, as Namespace.scan builds it) and a compaction (Merge of
// the whole sources into a table that is reopened and scanned). The
// scan reads its tables through a cache that keeps every block and
// through one that refuses them all; the compaction reads them
// uncached. The last two borrow every block, and the cases with a
// record per block check that none is given back while a record the
// merge returned or holds still aliases it.
func TestMergeMatchesReference(t *testing.T) {
	cases := fixedMergeCases()
	for seed := int64(1); seed <= 60; seed++ {
		c := randomMergeCase(rand.New(rand.NewSource(seed)), false)
		c.name = fmt.Sprintf("seed %d", seed)
		cases = append(cases, c)
	}
	for seed := int64(61); seed <= 80; seed++ {
		c := randomMergeCase(rand.New(rand.NewSource(seed)), true)
		c.name = fmt.Sprintf("seed %d, a record per block", seed)
		cases = append(cases, c)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			want := c.reference()
			collect := func(out *[]record.Record) func(record.Record) bool {
				return func(r record.Record) bool {
					*out = append(*out, r.Clone())
					return len(*out) != c.stopAfter
				}
			}

			tables := make([]*Reader, len(c.sources))
			wholeSrcs := make([]Source, len(c.sources))
			for i, recs := range c.sources {
				r := buildTable(t, filepath.Join(dir, fmt.Sprintf("%d.sst", i)), recs)
				defer r.Close()
				tables[i] = r
				wholeSrcs[i] = whole(r)
			}
			opts := MergeOptions{DropTombstones: c.dropTombstones, KeepTombstone: c.keepTombstone(), Drop: c.drop}

			// Scan: even sources are slices cut to the bounds, as the
			// memtable snapshot is; odd ones are tables behind a cache.
			for _, cache := range []BlockCache{newCountingCache(), missCache{false}} {
				scanSrcs := make([]Source, len(c.sources))
				for i, recs := range c.sources {
					tables[i].SetBlockCache(cache)
					scanSrcs[i] = tables[i].Range(c.start, c.end, true)
					if i%2 == 0 {
						lo := keyIndex(recs, c.start)
						hi := len(recs)
						if c.end != nil {
							hi = max(lo, keyIndex(recs, c.end))
						}
						scanSrcs[i] = Slice(recs[lo:hi])
					}
				}
				var scanned []record.Record
				it := NewMergeIter(opts, scanSrcs...)
				emit := collect(&scanned)
				for rec, ok := it.Next(); ok && emit(rec); rec, ok = it.Next() {
				}
				it.Close()
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				if !sameRecords(scanned, want) {
					t.Errorf("scan, cache %T = %v\nwant %v", cache, keysOf(scanned), keysOf(want))
				}
			}

			// Compaction: merge everything, reopen, read the range back.
			merged, err := Merge(filepath.Join(dir, "merged.sst"), opts, wholeSrcs...)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(filepath.Join(dir, "merged.sst"))
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			var compacted []record.Record
			if err := reopened.Scan(c.start, c.end, collect(&compacted)); err != nil {
				t.Fatal(err)
			}
			if !sameRecords(compacted, want) {
				t.Errorf("merge, reopen, scan = %v\nwant %v", keysOf(compacted), keysOf(want))
			}
		})
	}
}

func sameRecords(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) ||
			a[i].Version != b[i].Version || a[i].Tombstone != b[i].Tombstone {
			return false
		}
	}
	return true
}

func keysOf(recs []record.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s@%d", r.Key, r.Version)
	}
	return out
}

// The merge must cost no allocation per record: a scan's allocations
// are those of setting the iterator up, however many records it yields.
func TestMergeIterAllocsIndependentOfLength(t *testing.T) {
	drain := func(n int) float64 {
		a, b := seqRecords(n), seqRecords(n)
		return testing.AllocsPerRun(20, func() {
			it := NewMergeIter(MergeOptions{}, Slice(a), Slice(b))
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
		})
	}
	if short, long := drain(10), drain(5000); long > short {
		t.Fatalf("draining 5000 keys allocates %.0f times, 10 keys %.0f: the merge allocates per record", long, short)
	}
}

// A writer abandoned before Finish — a crash mid-flush or mid-merge —
// must leave nothing at the table's path for Open to trip over.
func TestUnfinishedWriterLeavesNoTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seqRecords(200) {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"t.sst" + TmpSuffix}) {
		t.Fatalf("mid-write directory = %v, want only the %s file", names, TmpSuffix)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"t.sst"}) {
		t.Fatalf("finished directory = %v, want only t.sst", names)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range matches {
		matches[i] = filepath.Base(m)
	}
	sort.Strings(matches)
	return matches
}

// keyIndex returns the index of the first of recs whose key is >= key.
func keyIndex(recs []record.Record, key []byte) int {
	return sort.Search(len(recs), func(i int) bool {
		return bytes.Compare(recs[i].Key, key) >= 0
	})
}
