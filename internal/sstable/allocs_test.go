//go:build !race

package sstable

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled block buffer allocates and the counts below do not hold; the
// pins run in the plain build.

import (
	"fmt"
	"path/filepath"
	"testing"

	"scads/internal/record"
)

// TestReadAllocs pins a 100-record scan over a 10 000-record table with
// no cache at no allocation: the blocks it reads are borrowed, and its
// start key does not escape.
func TestReadAllocs(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	scan := testing.AllocsPerRun(200, func() {
		n := 0
		if err := r.Scan([]byte("key-005000"), nil, func(record.Record) bool {
			n++
			return n < 100
		}); err != nil || n != 100 {
			t.Fatalf("scan = %d records, %v", n, err)
		}
	})
	if scan != 0 {
		t.Errorf("scan of 100 allocates %.0f times, want 0", scan)
	}
}

// TestRefusedGetAllocs pins a point get of a block no cache keeps, over
// a 10 000-record table, at one allocation: the record's copy. The
// block is read into a pooled buffer.
func TestRefusedGetAllocs(t *testing.T) {
	r := buildTable(t, filepath.Join(t.TempDir(), "t.sst"), seqRecords(10000))
	defer r.Close()
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i*97))
	}
	for _, cache := range []BlockCache{nil, missCache{false}} {
		r.SetBlockCache(cache)
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			if _, ok, err := r.Get(keys[i%len(keys)]); !ok || err != nil {
				t.Fatalf("miss on %q: %v", keys[i%len(keys)], err)
			}
			i++
		}); n != 1 {
			t.Errorf("cache %T: a refused get allocates %v times, want 1", cache, n)
		}
	}
}
