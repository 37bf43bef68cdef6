package partition

import (
	"slices"
	"testing"
)

func TestSpread(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name  string
		i, rf int
		want  []string
	}{
		{"first", 0, 1, []string{"a"}},
		{"consecutive", 1, 2, []string{"b", "c"}},
		{"wraps around", 2, 2, []string{"c", "a"}},
		{"index past the node count", 4, 2, []string{"b", "c"}},
		{"rf clamped to the node count", 1, 5, []string{"b", "c", "a"}},
	} {
		if got := Spread(tc.i, nodes, tc.rf); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Spread(%d, %v, %d) = %v, want %v", tc.name, tc.i, nodes, tc.rf, got, tc.want)
		}
	}
}

func TestSpares(t *testing.T) {
	r := NewRouter(nil, nil)
	// Ranges held: a 3 (two in ns1, one in ns2), b 1, c 1, d 0.
	ns1, _ := NewMap([]string{"a", "b"})
	if err := ns1.Split([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := ns1.SetReplicas([]byte("m"), []string{"a"}); err != nil {
		t.Fatal(err)
	}
	ns2, _ := NewMap([]string{"c", "a"})
	r.SetMap("ns1", ns1)
	r.SetMap("ns2", ns2)

	for _, tc := range []struct {
		name       string
		pool, held []string
		want       []string
	}{
		{"fewest ranges first, ties by ID", []string{"a", "b", "c", "d"}, nil, []string{"d", "b", "c", "a"}},
		{"held nodes excluded", []string{"a", "b", "c", "d"}, []string{"d", "b"}, []string{"c", "a"}},
		{"loads counted across namespaces", []string{"c", "a"}, nil, []string{"c", "a"}},
		{"only the pool is offered", []string{"a", "c"}, []string{"c"}, []string{"a"}},
		{"nothing left", []string{"a"}, []string{"a"}, nil},
	} {
		pool := slices.Clone(tc.pool)
		if got := r.Spares(pool, tc.held); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Spares(%v, %v) = %v, want %v", tc.name, tc.pool, tc.held, got, tc.want)
		}
		if !slices.Equal(pool, tc.pool) {
			t.Errorf("%s: Spares reordered its pool to %v", tc.name, pool)
		}
	}
}
