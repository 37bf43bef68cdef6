//go:build !race

package storage

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled scan state and blocks allocate and the count below does not
// hold; the pin runs in the plain build.

import (
	"fmt"
	"testing"

	"scads/internal/record"
)

// TestUncachedScanAllocs pins a 50-record ScanLive over a flushed table
// whose blocks no cache keeps, at one allocation: the start key, which
// the pooled merge keeps. The merge state is pooled and every block is
// borrowed. With no cache the blocks take the path of a block a full
// cache refuses.
func TestUncachedScanAllocs(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), NodeID: 1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ns, err := e.Namespace("scan")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := ns.Put([]byte(fmt.Sprintf("user-%08d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.BlockCache() != nil || ns.TableCount() != 1 {
		t.Fatalf("block cache %v, %d tables; want none and one", e.BlockCache(), ns.TableCount())
	}
	n := testing.AllocsPerRun(200, func() {
		got := 0
		if err := ns.ScanLive([]byte("user-00005000"), nil, func(record.Record) bool {
			got++
			return got < 50
		}); err != nil || got != 50 {
			t.Fatalf("scan = %d records, %v", got, err)
		}
	})
	if n > 1 {
		t.Errorf("a 50-record uncached scan allocates %v times, want <= 1", n)
	}
}
