// bench_test.go holds the pipeline benchmarks of this repo's scaling
// work beyond the paper's figures: the sharded read cache and the
// batched coordinator insert path. The paper's figures themselves are
// rows of experiments.json, run and gated by cmd/scads-bench; the
// group-commit write pipeline is measured by the ledger
// (benchmark/, wal.group_commit_us_p50 / syncs_per_append /
// group_size_mean).
package scads

import (
	"fmt"
	"strings"
	"testing"

	"scads/internal/storage"
)

// BenchmarkReadCache measures the sharded read cache on a namespace
// whose working set lives in SSTables: cached point gets skip the
// memtable/SSTable resolution entirely after the first touch.
func BenchmarkReadCache(b *testing.B) {
	const keys = 4096
	for _, mode := range []string{"uncached", "cached"} {
		b.Run(mode, func(b *testing.B) {
			cacheBytes := int64(0)
			if mode == "uncached" {
				cacheBytes = -1
			}
			e, err := storage.Open(storage.Options{Dir: b.TempDir(), NodeID: 1, CacheBytes: cacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ns, err := e.Namespace("users")
			if err != nil {
				b.Fatal(err)
			}
			val := []byte(strings.Repeat("v", 256))
			for i := 0; i < keys; i++ {
				if _, err := ns.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := ns.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := ns.Get([]byte(fmt.Sprintf("key-%06d", i%keys))); !ok || err != nil {
					b.Fatalf("get: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkInsertBatch compares row-at-a-time Insert against the
// batched coordinator path (InsertBatch), which groups records per
// primary node into multi-record applies.
func BenchmarkInsertBatch(b *testing.B) {
	const chunk = 100
	for _, mode := range []string{"loop-insert", "insert-batch"} {
		b.Run(mode, func(b *testing.B) {
			lc, err := NewLocalCluster(4, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()
			if err := lc.DefineSchema(socialDDL); err != nil {
				b.Fatal(err)
			}
			rows := make([]Row, chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range rows {
					rows[j] = Row{"id": fmt.Sprintf("u%09d-%02d", i, j), "name": "N", "birthday": 1}
				}
				if mode == "loop-insert" {
					for _, r := range rows {
						if err := lc.Insert("users", r); err != nil {
							b.Fatal(err)
						}
					}
				} else if err := lc.InsertBatch("users", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := lc.FlushAll(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
