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
// swap holds its key's stripe from the read to the remembered answer,
// so two deliveries of one swap never both read before either writes.
const swapStripes = 64

// swapMemory is the node's record of recent swaps' answers. Unlike a get
// or an apply, a swap is not idempotent in what it answers: when its
// answer is lost on the way back and the coordinator re-sends it, the
// retry finds the swap's own record stored. The memory answers that
// retry with what the first delivery displaced.
type swapMemory struct {
	seed    maphash.Seed
	stripes [swapStripes]sync.Mutex

	mu      sync.Mutex
	answers map[swapKey]swapAnswer
	order   []swapEntry // insertion order, for pruning
}

// swapKey names one key of one namespace by the key's hash. Two keys
// that share a hash share an entry: the later swap replaces the earlier
// one's answer, whose re-delivery then fails as lost, never wrongly
// answered, because an answer is only given to the version it belongs
// to (versions are unique to one write of one key).
type swapKey struct {
	ns   string
	hash uint64
}

// swapAnswer is what one swap displaced.
type swapAnswer struct {
	version uint64 // the swap's own version
	found   bool   // a live record was displaced
	value   []byte // its value, copied: a stored record may alias a cached table block
	prior   uint64 // its version
}

type swapEntry struct {
	key     swapKey
	version uint64
	at      time.Time
}

func newSwapMemory() *swapMemory {
	return &swapMemory{seed: maphash.MakeSeed(), answers: make(map[swapKey]swapAnswer)}
}

// swap applies rec to ns (named nsName) and answers the live record it
// displaced. A tombstone onto an absent or deleted key applies nothing.
// A re-delivery — the key already holds rec's version — is answered from
// memory, or with rpc.ErrSwapAnswerLost once the memory has no answer.
func (m *swapMemory) swap(ns *storage.Namespace, nsName string, recs []record.Record, now time.Time) rpc.Response {
	rec := recs[0]
	k := swapKey{nsName, maphash.Bytes(m.seed, rec.Key)}
	stripe := &m.stripes[k.hash%swapStripes]
	stripe.Lock()
	defer stripe.Unlock()
	cur, found, err := ns.GetRecord(rec.Key)
	if err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	if found && cur.Version == rec.Version {
		a, ok := m.recall(k, rec.Version)
		if !ok {
			return rpc.Response{Err: rpc.ErrString(rpc.ErrSwapAnswerLost)}
		}
		return a.response()
	}
	a := swapAnswer{version: rec.Version}
	if found && !cur.Tombstone {
		a.found, a.value, a.prior = true, bytes.Clone(cur.Value), cur.Version
	} else if rec.Tombstone {
		return rpc.Response{}
	}
	m.remember(k, a, now)
	if err := ns.ApplyBatch(recs); err != nil {
		return rpc.Response{Err: rpc.ErrString(err)}
	}
	return a.response()
}

func (a swapAnswer) response() rpc.Response {
	return rpc.Response{Found: a.found, Value: a.value, Version: a.prior}
}

// recall returns the remembered answer of the swap of version under k.
func (m *swapMemory) recall(k swapKey, version uint64) (swapAnswer, bool) {
	m.mu.Lock()
	a, ok := m.answers[k]
	m.mu.Unlock()
	return a, ok && a.version == version
}

// remember stores a, first forgetting the answers older than
// swapRetention.
func (m *swapMemory) remember(k swapKey, a swapAnswer, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for ; n < len(m.order) && now.Sub(m.order[n].at) > swapRetention; n++ {
		if e := m.order[n]; m.answers[e.key].version == e.version {
			delete(m.answers, e.key)
		}
	}
	m.order = append(m.order[n:], swapEntry{k, a.version, now})
	m.answers[k] = a
}
