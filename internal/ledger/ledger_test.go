package ledger

import (
	"errors"
	"sync"
	"testing"
)

// store is a map standing in for a cluster's reads.
type store map[string]string

func (s store) get(id string) (string, bool, error) {
	v, ok := s[id]
	return v, ok, nil
}

// TestVerifyCountsEachFaultOnce plants one fault of each kind among
// healthy keys: each counts once, and a delete that a later put
// overwrote is judged by the put.
func TestVerifyCountsEachFaultOnce(t *testing.T) {
	var l Ledger
	for _, op := range [][2]string{ // {id, value}; no value is a delete
		{"ok", "v1"}, {"ok", "v2"}, {"lost", "v1"}, {"corrupt", "v1"}, {"corrupt", "v2"},
		{"resurrected", "v1"}, {"resurrected", ""}, {"rewritten", ""}, {"rewritten", "v3"}, {"dead", ""},
	} {
		if op[1] == "" {
			l.Delete(op[0])
		} else {
			l.Put(op[0], op[1])
		}
	}
	s := store{"ok": "v2", "corrupt": "v1", "resurrected": "v1", "rewritten": "v3"}
	got, err := l.Verify(s.get)
	if want := (Loss{Lost: 1, Corrupted: 1, Resurrected: 1}); err != nil || got != want || got.None() {
		t.Fatalf("Verify = %v, %v; want %v", got, err, want)
	}
	if n := l.Acked(); n != 10 {
		t.Fatalf("Acked = %d, want 10", n)
	}
	boom := errors.New("boom")
	if _, err := l.Verify(func(string) (string, bool, error) { return "", false, boom }); !errors.Is(err, boom) {
		t.Fatalf("Verify error = %v, want %v", err, boom)
	}
}

// TestConcurrentWriters records from several goroutines at once;
// under -race it checks the mutex covers every path.
func TestConcurrentWriters(t *testing.T) {
	var l Ledger
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Put(id, "v")
				l.Delete(id)
			}
		}(string(rune('a' + w)))
	}
	wg.Wait()
	if got, err := l.Verify(store{}.get); err != nil || !got.None() || l.Acked() != 800 {
		t.Fatalf("Verify = %v, %v after %d acks; want no loss after 800", got, err, l.Acked())
	}
}
