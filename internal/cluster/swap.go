package cluster

import (
	"bytes"
	"hash/maphash"
	"sync"
	"time"

	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// swapRetention is how long a node remembers what a swap displaced. A
// coordinator re-sends one swap for at most one call timeout (the
// attempt whose answer was lost), then rpc.DownRetryBudget of retry
// rounds, then one more call timeout (the attempt in flight when the
// budget ran out): 5 s + 4 s + 5 s ≈ 14 s over the TCP transport's
// default timeout. The retention covers that twice over.
const swapRetention = 30 * time.Second

// swapStripes is how many key stripes serialise swaps on one node: a
// swap holds its keys' stripes from the reads to the remembered
// answers, so two deliveries of one swap never both read before either
// writes.
const swapStripes = 64

// swapMemory is the node's record of recent swaps' answers. Unlike a get
// or an apply, a swap is not idempotent in what it answers: when its
// answer is lost on the way back and the coordinator re-sends it, the
// retry finds the swap's own record stored, or a later record of the
// same batch. The memory answers that retry with what the first
// delivery displaced.
type swapMemory struct {
	seed    maphash.Seed
	stripes [swapStripes]sync.Mutex

	mu      sync.Mutex
	answers map[swapKey]record.Record
	order   []swapEntry // insertion order, for pruning
}

// swapKey names one swapped record: its namespace, its key's hash and
// its version. Versions are unique to one write of one key, so two
// records share an entry only when their keys share a hash and their
// versions match too.
type swapKey struct {
	ns      string
	hash    uint64
	version uint64
}

type swapEntry struct {
	key swapKey
	at  time.Time
}

func newSwapMemory() *swapMemory {
	return &swapMemory{seed: maphash.MakeSeed(), answers: make(map[swapKey]record.Record)}
}

// swap applies recs to ns (named nsName) in order and answers, in order,
// the record each displaced: its version, a tombstone's included, and
// its value when it was live; version 0 and a tombstone when the key
// held nothing. A record displaces an earlier record of the same batch.
// since, when non-zero, bounds the stored version: a record whose key
// holds version since or later applies nothing and is answered the
// stored record. A tombstone onto a key that holds no live record
// applies nothing either. A re-delivery is answered from memory, or
// with rpc.ErrSwapAnswerLost once the memory has no answer.
func (m *swapMemory) swap(ns *storage.Namespace, nsName string, recs []record.Record, since uint64, now time.Time) rpc.Response {
	keys := make([]swapKey, len(recs))
	var held uint64 // a bit per stripe
	for i, rec := range recs {
		keys[i] = swapKey{nsName, maphash.Bytes(m.seed, rec.Key), rec.Version}
		held |= 1 << (keys[i].hash % swapStripes)
	}
	m.eachStripe(held, (*sync.Mutex).Lock)
	defer m.eachStripe(held, (*sync.Mutex).Unlock)

	out := make([]record.Record, len(recs))
	var apply []record.Record
	latest := make(map[string]record.Record) // what this batch left under each key
	for i, rec := range recs {
		m.mu.Lock()
		a, ok := m.answers[keys[i]]
		m.mu.Unlock()
		if ok { // a re-delivery
			out[i], keys[i] = a, swapKey{}
			continue
		}
		cur, found := latest[string(rec.Key)]
		if !found {
			var err error
			if cur, found, err = ns.GetRecord(rec.Key); err != nil {
				return rpc.Response{Err: rpc.ErrString(err)}
			}
			if found && cur.Version == rec.Version {
				return rpc.Response{Err: rpc.ErrString(rpc.ErrSwapAnswerLost)}
			}
		}
		// A copy: a stored record may alias a cached table block.
		out[i] = record.Record{Version: cur.Version, Tombstone: !found || cur.Tombstone, Value: bytes.Clone(cur.Value)}
		switch {
		case since != 0 && cur.Version >= since:
			keys[i] = swapKey{} // refused: nothing to remember
		case rec.Tombstone && out[i].Tombstone: // nothing to delete
		case len(recs) == 1:
			apply = recs
		default:
			apply = append(apply, rec)
			if rec.Supersedes(cur) {
				cur = rec
			}
			latest[string(rec.Key)] = cur
		}
	}
	if len(apply) > 0 {
		if err := ns.ApplyBatch(apply); err != nil {
			return rpc.Response{Err: rpc.ErrString(err)}
		}
	}
	m.remember(keys, out, now)
	return rpc.Response{Records: out}
}

// eachStripe calls f on each stripe whose bit is set in held, in stripe
// order.
func (m *swapMemory) eachStripe(held uint64, f func(*sync.Mutex)) {
	for s := range swapStripes {
		if held&(1<<s) != 0 {
			f(&m.stripes[s])
		}
	}
}

// remember stores the answers out of the swaps keys name (a zero key is
// skipped), first forgetting the answers older than swapRetention.
func (m *swapMemory) remember(keys []swapKey, out []record.Record, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for ; n < len(m.order) && now.Sub(m.order[n].at) > swapRetention; n++ {
		delete(m.answers, m.order[n].key)
	}
	m.order = m.order[n:]
	for i, k := range keys {
		if k.version != 0 {
			m.order = append(m.order, swapEntry{k, now})
			m.answers[k] = out[i]
		}
	}
}
