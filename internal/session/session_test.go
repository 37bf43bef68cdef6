package session

import (
	"sync"
	"testing"
	"testing/quick"

	"scads/internal/consistency"
)

func TestReadYourWritesFloor(t *testing.T) {
	s := New(consistency.ReadYourWrites)
	key := []byte("wall:alice")

	// Before any write, anything is acceptable.
	if !s.Acceptable("posts", key, 0, false) {
		t.Fatal("fresh session rejected a miss")
	}
	s.ObserveWrite("posts", key, 100, false)
	if s.Acceptable("posts", key, 99, true) {
		t.Fatal("stale version accepted after own write")
	}
	if s.Acceptable("posts", key, 0, false) {
		t.Fatal("miss accepted after own write")
	}
	if !s.Acceptable("posts", key, 100, true) || !s.Acceptable("posts", key, 101, true) {
		t.Fatal("fresh version rejected")
	}
	if floorOf(s, "posts", key) != 100 {
		t.Fatalf("Floor = %d", floorOf(s, "posts", key))
	}
}

func TestReadYourWritesDelete(t *testing.T) {
	s := New(consistency.ReadYourWrites)
	key := []byte("k")
	s.ObserveWrite("ns", key, 50, true) // session deleted the key
	if !s.Acceptable("ns", key, 0, false) {
		t.Fatal("miss rejected after own delete")
	}
	if s.Acceptable("ns", key, 40, true) {
		t.Fatal("pre-delete value accepted after own delete")
	}
	if !s.Acceptable("ns", key, 60, true) {
		t.Fatal("newer re-creation rejected")
	}
}

func TestMonotonicReads(t *testing.T) {
	s := New(consistency.MonotonicReads)
	key := []byte("k")
	// Writes do not create floors at this level.
	s.ObserveWrite("ns", key, 100, false)
	if !s.Acceptable("ns", key, 1, true) {
		t.Fatal("monotonic-reads session raised floor on write")
	}
	// Reads do.
	s.ObserveRead("ns", key, 70, true)
	if s.Acceptable("ns", key, 69, true) {
		t.Fatal("read went backwards")
	}
	if !s.Acceptable("ns", key, 70, true) {
		t.Fatal("same version rejected")
	}
	// Misses never lower or set floors.
	s.ObserveRead("ns", key, 0, false)
	if s.Acceptable("ns", key, 69, true) {
		t.Fatal("floor lost after observing a miss")
	}
}

func TestSessionNoneAcceptsEverything(t *testing.T) {
	s := New(consistency.SessionNone)
	s.ObserveWrite("ns", []byte("k"), 100, false)
	s.ObserveRead("ns", []byte("k"), 100, true)
	if !s.Acceptable("ns", []byte("k"), 1, true) || !s.Acceptable("ns", []byte("k"), 0, false) {
		t.Fatal("SessionNone rejected a read")
	}
	if len(s.floors) != 0 {
		t.Fatal("SessionNone tracked floors")
	}
}

func TestNilSessionSafe(t *testing.T) {
	var s *Session
	s.ObserveWrite("ns", []byte("k"), 1, false)
	s.ObserveRead("ns", []byte("k"), 1, true)
	if !s.Acceptable("ns", []byte("k"), 0, false) {
		t.Fatal("nil session rejected")
	}
}

func TestFloorsArekeyAndNamespaceScoped(t *testing.T) {
	s := New(consistency.ReadYourWrites)
	s.ObserveWrite("ns1", []byte("k"), 100, false)
	if !s.Acceptable("ns2", []byte("k"), 1, true) {
		t.Fatal("floor leaked across namespaces")
	}
	if !s.Acceptable("ns1", []byte("other"), 1, true) {
		t.Fatal("floor leaked across keys")
	}
}

func TestConcurrentSessionUse(t *testing.T) {
	s := New(consistency.ReadYourWrites)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte{byte(w)}
			for i := uint64(1); i <= 100; i++ {
				s.ObserveWrite("ns", key, i, false)
				if !s.Acceptable("ns", key, i, true) {
					t.Errorf("own write rejected")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(s.floors) != 8 {
		t.Fatalf("Len = %d", len(s.floors))
	}
}

// Property: floors are monotone — observing any sequence of writes,
// the floor equals the max version written, and any read at or above
// the floor is acceptable.
func TestQuickFloorIsMaxWrite(t *testing.T) {
	f := func(versions []uint32) bool {
		s := New(consistency.ReadYourWrites)
		var max uint64
		for _, v := range versions {
			ver := uint64(v) + 1
			s.ObserveWrite("ns", []byte("k"), ver, false)
			if ver > max {
				max = ver
			}
		}
		if len(versions) == 0 {
			return floorOf(s, "ns", []byte("k")) == 0
		}
		return floorOf(s, "ns", []byte("k")) == max &&
			s.Acceptable("ns", []byte("k"), max, true) &&
			!s.Acceptable("ns", []byte("k"), max-1, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// floorOf reads the version floor the session holds for key (0 when
// none).
func floorOf(s *Session, namespace string, key []byte) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[floorKey{namespace, string(key)}].version
}
