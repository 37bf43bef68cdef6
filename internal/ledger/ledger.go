// Package ledger is the acknowledged-write check behind every loss
// gate: the migration, crash-recovery and autoscaling experiments and
// their tests record each write the cluster acknowledged, then read
// every key back once the churn settles. A key whose last
// acknowledged write was a put must read back exactly that value; a
// key whose last acknowledged write was a delete must stay absent.
//
// RFRestored is the other half of those runs' settle condition: every
// range back at full replication strength on live nodes.
package ledger

import (
	"fmt"
	"maps"
	"sync"

	"scads/internal/cluster"
	"scads/internal/partition"
	"scads/internal/repair"
)

// Ledger records the last acknowledged write of every key. The zero
// value is empty and ready; it is safe for concurrent use. Writers
// must own disjoint keys (or order their writes to a key themselves):
// the ledger keeps whichever write reached it last.
type Ledger struct {
	mu    sync.Mutex
	last  map[string]entry
	acked int64
}

// entry is a key's last acknowledged write: a value, or a delete.
type entry struct {
	want    string
	deleted bool
}

// Put records that a write of want to id was acknowledged.
func (l *Ledger) Put(id, want string) { l.record(id, entry{want: want}) }

// Delete records that a delete of id was acknowledged.
func (l *Ledger) Delete(id string) { l.record(id, entry{deleted: true}) }

func (l *Ledger) record(id string, e entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == nil {
		l.last = make(map[string]entry)
	}
	l.last[id] = e
	l.acked++
}

// Acked is how many puts and deletes were recorded.
func (l *Ledger) Acked() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// Loss is what Verify found wrong, one count per key.
type Loss struct {
	Lost        int // last acknowledged a put, reads back absent
	Corrupted   int // last acknowledged a put, reads back another value
	Resurrected int // last acknowledged a delete, reads back present
}

// None reports whether every key read back as acknowledged.
func (l Loss) None() bool { return l == Loss{} }

func (l Loss) String() string {
	return fmt.Sprintf("lost=%d corrupted=%d resurrected=%d", l.Lost, l.Corrupted, l.Resurrected)
}

// Verify reads every recorded key through get and counts the keys
// that do not read back as their last acknowledged write. It stops at
// the first error get returns. Writes recorded while it runs are not
// checked.
func (l *Ledger) Verify(get func(id string) (value string, found bool, err error)) (Loss, error) {
	l.mu.Lock()
	last := maps.Clone(l.last)
	l.mu.Unlock()
	var loss Loss
	for id, want := range last {
		got, found, err := get(id)
		if err != nil {
			return loss, fmt.Errorf("ledger: read %s: %w", id, err)
		}
		switch {
		case want.deleted && found:
			loss.Resurrected++
		case !want.deleted && !found:
			loss.Lost++
		case !want.deleted && got != want.want:
			loss.Corrupted++
		}
	}
	return loss, nil
}

// Cluster is what RFRestored reads: a coordinator's partition maps,
// its membership directory and its repair manager's counters.
type Cluster interface {
	Router() *partition.Router
	Directory() *cluster.Directory
	RepairStats() repair.Stats
}

// RFRestored reports whether no repair job is in flight and every
// range of every namespace has at least rf distinct replicas, all up.
func RFRestored(c Cluster, rf int) bool {
	if c.RepairStats().PendingJobs != 0 {
		return false
	}
	for _, ns := range c.Router().Namespaces() {
		m, ok := c.Router().Map(ns)
		if !ok {
			return false
		}
		for _, rng := range m.Ranges() {
			if len(rng.Replicas) < rf {
				return false
			}
			seen := make(map[string]bool, len(rng.Replicas))
			for _, id := range rng.Replicas {
				if _, ok := c.Directory().Addr(id); !ok || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
	}
	return true
}
