// bench_test.go holds the pipeline benchmark of this repo's scaling
// work beyond the paper's figures: the batched coordinator insert
// path. The paper's figures themselves are rows of experiments.json,
// run and gated by cmd/scads-bench; the group-commit write pipeline is
// measured by the ledger (benchmark/, wal.group_commit_us_p50 /
// syncs_per_append / group_size_mean).
package scads

import (
	"fmt"
	"testing"
)

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
