//go:build !race

package wal

// Under the race detector sync.Pool drops a share of its Puts, so the
// pooled encode buffer allocates and the count below does not hold; the
// pin runs in the plain build.

import (
	"bytes"
	"fmt"
	"testing"

	"scads/internal/record"
)

// TestAppendBatchAllocs pins a batch append at no allocation: the
// batch is encoded into one pooled buffer and goes out in one write.
func TestAppendBatchAllocs(t *testing.T) {
	l, _, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := make([]record.Record, 16)
	for i := range batch {
		batch[i] = rec(fmt.Sprintf("user:%05d", i), string(bytes.Repeat([]byte("v"), 200)), uint64(i+1))
	}
	appendBatch := func() {
		if err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	appendBatch()
	if allocs := testing.AllocsPerRun(200, appendBatch); allocs != 0 {
		t.Errorf("a 16-record AppendBatch allocates %.1f times, want 0", allocs)
	}
}
