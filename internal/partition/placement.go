package partition

import (
	"cmp"
	"slices"
	"strings"
)

// Placement: the only code that decides which nodes hold a range. A
// fresh layout is round-robin (Spread: schema definition, the
// director's spread after a resize); a replica added to an existing
// group is the least-loaded spare (Spares: RF repair, decommission,
// durability enforcement).

// Spread is the round-robin layout: the i-th range (or namespace) is
// held by min(rf, len(nodes)) consecutive nodes starting at
// nodes[i mod len(nodes)], the first of them its primary.
func Spread(i int, nodes []string, rf int) []string {
	out := make([]string, min(rf, len(nodes)))
	for j := range out {
		out[j] = nodes[(i+j)%len(nodes)]
	}
	return out
}

// Spares returns the nodes of pool not in held, ordered by how few
// ranges each holds across every map of the router, ties by ID.
func (r *Router) Spares(pool, held []string) []string {
	load := make(map[string]int)
	for _, m := range *r.maps.Load() {
		m.mu.RLock()
		for _, rng := range m.ranges {
			for _, id := range rng.Replicas {
				load[id]++
			}
		}
		m.mu.RUnlock()
	}
	out := slices.DeleteFunc(slices.Clone(pool), func(id string) bool { return slices.Contains(held, id) })
	slices.SortFunc(out, func(a, b string) int {
		return cmp.Or(cmp.Compare(load[a], load[b]), strings.Compare(a, b))
	})
	return out
}
