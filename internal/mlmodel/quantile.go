package mlmodel

import (
	"math"
	"sort"
)

// WindowQuantile keeps the last N samples in a ring buffer and
// computes exact quantiles over them — the SLA monitor's sliding
// window.
type WindowQuantile struct {
	buf  []float64
	next int
	full bool
}

// NewWindow returns a window of size n (n >= 1).
func NewWindow(n int) *WindowQuantile {
	if n < 1 {
		n = 1
	}
	return &WindowQuantile{buf: make([]float64, n)}
}

// Add observes a sample.
func (w *WindowQuantile) Add(x float64) {
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len reports how many samples the window currently holds.
func (w *WindowQuantile) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Quantile returns the q-quantile (q in [0,1]) of the window, or NaN
// when empty. Uses the nearest-rank method: the value at ceil(q*n).
func (w *WindowQuantile) Quantile(q float64) float64 {
	n := w.Len()
	if n == 0 {
		return math.NaN()
	}
	tmp := make([]float64, n)
	copy(tmp, w.buf[:n])
	sort.Float64s(tmp)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return tmp[rank]
}
