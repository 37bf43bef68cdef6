package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

// lwwReference is the last-write-wins answer worked out with a map —
// the oracle of sstable's TestMergeMatchesReference: the superseding
// version of each key wins, whenever and into whichever layer it was
// applied.
type lwwReference map[string]record.Record

func (ref lwwReference) apply(recs []record.Record) {
	for _, r := range recs {
		if cur, ok := ref[string(r.Key)]; !ok || r.Supersedes(cur) {
			ref[string(r.Key)] = r
		}
	}
}

// records returns the reference sorted by key, without the tombstones
// when live is set.
func (ref lwwReference) records(live bool) []record.Record {
	var out []record.Record
	for _, r := range ref {
		if !(live && r.Tombstone) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i].Key) < string(out[j].Key) })
	return out
}

// tombstones says what a stage of the matrix may have done with the
// reference's tombstones.
type tombstones int

const (
	tombstonesKept    tombstones = iota
	tombstonesPartly             // a merge dropped those no unmerged record could be older than
	tombstonesDropped            // a merge of everything dropped them all
)

// Apply never reads below the memtable, so a record older than what a
// table holds is stored above it. Every reader has to put that right:
// the matrix applies records out of version order across flushes — an
// older put after a newer put was flushed, an older put after a newer
// tombstone was flushed, exact duplicates, equal versions — and checks
// Get, GetRecord, ScanLive, ScanAll and ScanSince against the map
// reference while the stale records sit in the memtable, after they are
// flushed, after a tier merge, after a major compaction that runs while
// more stale records sit in the memtable, after those are flushed, after
// a reopen and after the major compaction of everything, with the
// block cache on and off.
func TestBlindApplyLWWMatrix(t *testing.T) {
	for _, cacheBytes := range []int64{-1, 1 << 20} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cache=%d/seed=%d", cacheBytes, seed), func(t *testing.T) {
				lwwMatrix(t, cacheBytes, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func lwwMatrix(t *testing.T, cacheBytes int64, rng *rand.Rand) {
	dir := t.TempDir()
	opts := Options{Dir: dir, MemtableBytes: 64 << 20, MaxTables: 2, NodeID: 1, CacheBytes: -1, BlockCacheBytes: cacheBytes}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	ns, err := e.Namespace("m")
	if err != nil {
		t.Fatal(err)
	}
	epoch, _ := ns.ApplyWatermark()

	put := func(key string, ver uint64, val string) record.Record {
		return record.Record{Key: []byte(key), Value: []byte(val), Version: ver}
	}
	del := func(key string, ver uint64) record.Record {
		return record.Record{Key: []byte(key), Version: ver, Tombstone: true}
	}
	// random draws n records over 40 keys with versions in [lo, hi).
	random := func(n int, lo, hi uint64) []record.Record {
		recs := make([]record.Record, n)
		for i := range recs {
			key := fmt.Sprintf("k%02d", rng.Intn(40))
			ver := lo + uint64(rng.Int63n(int64(hi-lo)))
			if rng.Intn(4) == 0 {
				recs[i] = del(key, ver)
			} else {
				recs[i] = put(key, ver, fmt.Sprintf("v%d-%d", ver, rng.Intn(3)))
			}
		}
		return recs
	}

	ref := lwwReference{}
	apply := func(recs []record.Record) {
		t.Helper()
		// Part as one batch, part record by record.
		half := len(recs) / 2
		if err := ns.ApplyBatch(recs[:half]); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs[half:] {
			if err := ns.Apply(r); err != nil {
				t.Fatal(err)
			}
		}
		ref.apply(recs)
	}
	check := func(stage string, tombs tombstones, sameEpoch bool) {
		t.Helper()
		live := ref.records(true)
		// matches compares what a reader returned with the reference: the
		// live records exactly, each tombstone there is as the reference
		// has it, and all of them or none where the stage says so.
		matches := func(name string, got []record.Record) {
			t.Helper()
			want := ref.records(tombs == tombstonesDropped)
			if tombs == tombstonesPartly {
				want = want[:0]
				for _, r := range ref.records(false) {
					if i := sort.Search(len(got), func(i int) bool { return string(got[i].Key) >= string(r.Key) }); !r.Tombstone || (i < len(got) && string(got[i].Key) == string(r.Key)) {
						want = append(want, r)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s = %v\nwant %v", stage, name, got, want)
			}
		}
		for _, want := range ref.records(false) {
			// A merge may have dropped a tombstone, whose absence reads
			// the same.
			got, ok, err := ns.GetRecord(want.Key)
			mayBeGone := tombs != tombstonesKept && want.Tombstone
			if err != nil || (!ok && !mayBeGone) || (ok && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s: GetRecord(%s) = %+v, %v, %v; want %+v", stage, want.Key, got, ok, err, want)
			}
			val, ok, err := ns.Get(want.Key)
			if err != nil || ok == want.Tombstone || (ok && string(val) != string(want.Value)) {
				t.Errorf("%s: Get(%s) = %q, %v, %v; want %+v", stage, want.Key, val, ok, err, want)
			}
		}
		scan := func(run func(fn func(record.Record) bool) error) []record.Record {
			t.Helper()
			var got []record.Record
			if err := run(func(r record.Record) bool { got = append(got, r.Clone()); return true }); err != nil {
				t.Fatal(err)
			}
			return got
		}
		if got := scan(func(fn func(record.Record) bool) error { return ns.ScanLive(nil, nil, fn) }); !reflect.DeepEqual(got, live) {
			t.Errorf("%s: ScanLive = %v\nwant %v", stage, got, live)
		}
		matches("ScanAll", scan(func(fn func(record.Record) bool) error { return ns.ScanAll(nil, nil, fn) }))
		since, _, more, ok, err := scanSince(ns, epoch, 0, nil, nil, 0)
		if err != nil || ok != sameEpoch || more {
			t.Fatalf("%s: ScanSince ok=%v more=%v err=%v", stage, ok, more, err)
		}
		if sameEpoch {
			sort.Slice(since, func(i, j int) bool { return string(since[i].Key) < string(since[j].Key) })
			matches("ScanSince(0)", since)
		}
	}
	flush := func() {
		t.Helper()
		if err := ns.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// The bottom table: the newer versions, and filler that makes it
	// several times the size of the tables to come, so that the tier
	// merge below takes the two small ones and leaves the tombstones in.
	bottom := []record.Record{
		put("put-then-older-put", 150, "new"),
		del("tombstone-then-older-put", 150),
		put("duplicate", 150, "same"),
		del("duplicate-tombstone", 150),
		put("equal-version", 150, "b"),
		put("equal-version-tombstone", 150, "x"),
	}
	bottom = append(bottom, random(60, 100, 200)...)
	for i := 0; i < 400; i++ {
		bottom = append(bottom, put(fmt.Sprintf("filler%03d", i), 1, "................................"))
	}
	apply(bottom)
	check("newer versions in the memtable", tombstonesKept, true)
	flush()

	// The stale arrivals, stored above the table that supersedes them.
	apply(append([]record.Record{
		put("put-then-older-put", 50, "old"),
		put("tombstone-then-older-put", 50, "old"),
		put("duplicate", 150, "same"),
		del("duplicate-tombstone", 150),
		put("equal-version", 150, "a"),
		del("equal-version-tombstone", 150),
	}, random(40, 1, 200)...))
	check("stale records in the memtable", tombstonesKept, true)
	flush()
	check("stale records flushed above", tombstonesKept, true)

	apply(random(40, 1, 200))
	check("more stale records in the memtable", tombstonesKept, true)
	flush() // the third table exceeds MaxTables and kicks the tier merge
	for wait := time.Now().Add(5 * time.Second); ns.TableCount() > 2 && time.Now().Before(wait); {
		ns.WaitCompaction()
		time.Sleep(time.Millisecond)
	}
	if got := ns.TableCount(); got != 2 {
		t.Fatalf("after the tier merge: %d tables, want the two small ones merged over the big one", got)
	}
	check("after the tier merge", tombstonesKept, true)

	compact := func(tables int) {
		t.Helper()
		ns.compactMu.Lock()
		err := ns.compactLocked()
		ns.compactMu.Unlock()
		if err != nil || ns.TableCount() != tables {
			t.Fatalf("major compaction: %v, %d tables", err, ns.TableCount())
		}
	}
	reopen := func() {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		if ns, err = e.Namespace("m"); err != nil {
			t.Fatal(err)
		}
	}

	// The merge that drops tombstones runs while puts older than some of
	// them are in the memtable only: those tombstones have to outlive it.
	apply(append([]record.Record{
		put("tombstone-then-older-put", 60, "old again"),
		put("duplicate-tombstone", 149, "old"),
	}, random(40, 1, 200)...))
	compact(1)
	check("after the major compaction under stale records in the memtable", tombstonesPartly, true)
	flush()
	check("those stale records flushed above the compacted table", tombstonesPartly, true)
	reopen()
	check("after reopen", tombstonesPartly, false)

	compact(1)
	check("after the major compaction of everything", tombstonesDropped, false)
	reopen()
	check("after the second reopen", tombstonesDropped, false)
}

// A put older than a tombstone that was already flushed is stored above
// it unread, and a merge of all the tables must not take the tombstone
// away from under it: not while the put is in a memtable, and not when
// it arrives, or is flushed, while the merge runs.
func TestStalePutUnderFlushedTombstoneStaysDeleted(t *testing.T) {
	put := func(key string, ver uint64, val string) record.Record {
		return record.Record{Key: []byte(key), Value: []byte(val), Version: ver}
	}
	tombstone := record.Record{Key: []byte("k"), Version: 150, Tombstone: true}
	// stillDeleted checks every reader, then flushes the stale put into a
	// table of its own, merges that with the rest and reopens.
	stillDeleted := func(t *testing.T, opts Options, e *Engine, ns *Namespace) {
		t.Helper()
		check := func(stage string) {
			t.Helper()
			if val, ok, err := ns.Get([]byte("k")); err != nil || ok {
				t.Errorf("%s: Get(k) = %q, %v, %v; the key was deleted at version 150", stage, val, ok, err)
			}
			if rec, ok, _ := ns.GetRecord([]byte("k")); ok && !reflect.DeepEqual(rec, tombstone) {
				t.Errorf("%s: GetRecord(k) = %+v, want the tombstone or nothing", stage, rec)
			}
			ns.ScanLive(nil, nil, func(r record.Record) bool {
				if string(r.Key) == "k" {
					t.Errorf("%s: ScanLive returned %+v", stage, r)
				}
				return true
			})
		}
		check("after the merge")
		if err := ns.Flush(); err != nil {
			t.Fatal(err)
		}
		check("after the flush")
		ns.compactMu.Lock()
		err := ns.compactLocked()
		ns.compactMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		check("after merging the stale put with its tombstone")
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if ns, err = e.Namespace("m"); err != nil {
			t.Fatal(err)
		}
		check("after reopen")
	}
	open := func(t *testing.T, opts Options) (*Engine, *Namespace) {
		t.Helper()
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := e.Namespace("m")
		if err != nil {
			t.Fatal(err)
		}
		// Two tables: the tombstone at the bottom, an unrelated key above.
		for _, rec := range []record.Record{tombstone, put("other", 160, "x")} {
			if err := ns.Apply(rec); err != nil {
				t.Fatal(err)
			}
			if err := ns.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return e, ns
	}

	t.Run("in the memtable when the major compaction starts", func(t *testing.T) {
		opts := Options{Dir: t.TempDir(), MaxTables: 8, NodeID: 1}
		e, ns := open(t, opts)
		if err := ns.Apply(put("k", 50, "old")); err != nil {
			t.Fatal(err)
		}
		ns.compactMu.Lock()
		err := ns.compactLocked()
		ns.compactMu.Unlock()
		if err != nil || ns.TableCount() != 1 {
			t.Fatalf("major compaction: %v, %d tables", err, ns.TableCount())
		}
		stillDeleted(t, opts, e, ns)
	})

	// The background merge of the whole stack finds the memtable empty
	// when it starts and would drop every tombstone; the stale put
	// arrives while it runs (a virtual clock holds it in its rate
	// limiter), and in the second case is flushed above it as well.
	for _, flushed := range []bool{false, true} {
		t.Run(fmt.Sprintf("arrives during the tier merge/flushed=%v", flushed), func(t *testing.T) {
			clk := clock.NewVirtual(time.Unix(1000, 0))
			opts := Options{Dir: t.TempDir(), MaxTables: 1, NodeID: 1, CompactionRateBytes: 1, Clock: clk}
			e, ns := open(t, opts) // the second flush exceeds MaxTables
			clk.BlockUntilWaiters(1)
			if err := ns.Apply(put("k", 50, "old")); err != nil {
				t.Fatal(err)
			}
			if flushed {
				// Two tables again once the merge is done, which the next
				// merge makes one: the stale put meets its tombstone there.
				if err := ns.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for wait := time.Now().Add(10 * time.Second); ns.TableCount() != 1; runtime.Gosched() {
				if time.Now().After(wait) {
					t.Fatalf("the tier merges never finished: %d tables", ns.TableCount())
				}
				clk.Advance(time.Hour)
			}
			if rec, ok, _ := ns.GetRecord([]byte("k")); !flushed && !(ok && rec.Tombstone) {
				t.Errorf("GetRecord(k) = %+v, %v: the merge dropped the tombstone from under the stale put", rec, ok)
			}
			opts.Clock, opts.CompactionRateBytes = nil, 0
			stillDeleted(t, opts, e, ns)
		})
	}
}
