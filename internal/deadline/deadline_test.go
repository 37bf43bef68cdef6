package deadline

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func popAll[T any](h *Heap[T]) []T {
	var out []T
	for it, ok := h.Pop(); ok; it, ok = h.Pop() {
		out = append(out, it.Value)
	}
	return out
}

func TestDeadlineOrder(t *testing.T) {
	var h Heap[string]
	h.Push(t0.Add(3*time.Second), "a")
	h.Push(t0.Add(1*time.Second), "b")
	h.Push(t0.Add(2*time.Second), "c")
	if got := fmt.Sprint(popAll(&h)); got != "[b c a]" {
		t.Fatalf("pop order = %v", got)
	}
}

func TestArrivalOrder(t *testing.T) {
	h := New[string](true)
	// Deadlines are inverted; arrival order must ignore them.
	h.Push(t0.Add(3*time.Second), "a")
	h.Push(t0.Add(1*time.Second), "b")
	h.Push(t0.Add(2*time.Second), "c")
	if got := fmt.Sprint(popAll(&h)); got != "[a b c]" {
		t.Fatalf("arrival pop order = %v", got)
	}
}

func TestTiesInArrivalOrder(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 5; i++ {
		h.Push(t0.Add(time.Second), i)
	}
	if got := fmt.Sprint(popAll(&h)); got != "[0 1 2 3 4]" {
		t.Fatalf("tie order = %v", got)
	}
}

// entry is the model's copy of a queued value: its deadline and its
// arrival, which is also the value the heap holds.
type entry struct {
	deadline time.Time
	arrival  int
}

// TestQuickDeadlineOrdering: under random pushes with colliding
// deadlines, pops and requeues of popped items, in either order, every
// Pop and Peek answers the first of a stable sort by deadline of the
// queued items in arrival order (arrival order alone for an
// arrival-ordered heap); Len, Due and Visit see what the model holds.
func TestQuickDeadlineOrdering(t *testing.T) {
	f := func(ops []uint8, byArrival bool) bool {
		h := New[int](byArrival)
		var queued []entry
		var popped []Item[int]
		arrivals := 0
		first := func() entry {
			slices.SortFunc(queued, func(a, b entry) int { return cmp.Compare(a.arrival, b.arrival) })
			if !byArrival {
				slices.SortStableFunc(queued, func(a, b entry) int { return a.deadline.Compare(b.deadline) })
			}
			return queued[0]
		}
		check := func(it Item[int], ok bool) bool {
			if len(queued) == 0 {
				return !ok
			}
			want := first()
			return ok && it.Value == want.arrival && it.Deadline.Equal(want.deadline)
		}
		for _, op := range append(ops, make([]uint8, len(ops)+1)...) {
			arg := int(op / 4)
			switch {
			case op%4 < 2 && op != 0: // push; deadlines in [t0, t0+3s] collide
				e := entry{t0.Add(time.Duration(arg%4) * time.Second), arrivals}
				arrivals++
				h.Push(e.deadline, e.arrival)
				queued = append(queued, e)
			case op%4 == 3 && len(popped) > 0: // requeue a popped item
				k := arg % len(popped)
				h.Requeue(popped[k])
				queued = append(queued, entry{popped[k].Deadline, popped[k].Value})
				popped = slices.Delete(popped, k, k+1)
			default: // pop (the zero ops appended drain the heap)
				if !check(h.Peek()) {
					return false
				}
				it, ok := h.Pop()
				if !check(it, ok) {
					return false
				}
				if ok {
					queued = queued[1:]
					popped = append(popped, it)
				}
			}
			due, want, visited := 0, []int{}, []int{}
			for _, e := range queued {
				if !e.deadline.After(t0.Add(time.Second)) {
					due++
				}
				want = append(want, e.arrival)
			}
			for v := range h.Visit {
				visited = append(visited, v)
			}
			slices.Sort(want)
			slices.Sort(visited)
			if h.Len() != len(queued) || h.Due(t0, time.Second) != due || !slices.Equal(visited, want) {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
