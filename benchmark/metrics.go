package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named, unit-carrying number. n is the sample count
// behind a timing (0 when the metric is not a timing).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// metricSet keeps metrics in emission order and refuses duplicates.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (m *metricSet) add(name, unit string, value float64) {
	m.addN(name, unit, value, 0, "")
}

func (m *metricSet) addN(name, unit string, value float64, n int, note string) {
	if m.seen == nil {
		m.seen = make(map[string]bool)
	}
	if m.seen[name] {
		panic("benchmark: metric emitted twice")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m.seen[name] = true
	m.list = append(m.list, metric{name: name, unit: unit, value: value, n: n, note: note})
}

func (m *metricSet) get(name string) (float64, bool) {
	for _, x := range m.list {
		if x.name == name {
			return x.value, true
		}
	}
	return 0, false
}

// print writes one line per metric: name, value, unit, and the sample
// count of a timing.
func (m *metricSet) print(w io.Writer) {
	for _, x := range m.list {
		line := fmt.Sprintf("  %-42s %14.4f %-6s", x.name, x.value, x.unit)
		if x.n > 0 {
			line += fmt.Sprintf(" n=%d", x.n)
		}
		if x.note != "" {
			line += "  (" + x.note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) result(correct bool, attempted, failed int) result {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(m.list))}
	for _, x := range m.list {
		r.Metrics[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	return r
}

func (r result) writeLine(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// percentile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSnap is the process-wide cost counters, read before and after a
// measured phase. The nodes run in this process, so the deltas cover
// the client and the server side of every request.
type procSnap struct {
	at                  time.Time
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	heapInuse           uint64
	cpu                 time.Duration
	maxRSSKiB           int64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{
		at:      time.Now(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		gcPauseNs: ms.PauseTotalNs, heapInuse: ms.HeapInuse,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKiB = int64(ru.Maxrss)
	}
	return s
}
