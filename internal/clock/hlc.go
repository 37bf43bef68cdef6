package clock

import "sync/atomic"

// HLC is a hybrid logical clock, the version every write is stamped
// with: the clock's Unix nanoseconds shifted left 16 bits, OR a 16-bit
// ID, moved one tick (1<<16) past the previous stamp whenever the clock
// has not advanced since. Stamps from one HLC strictly increase, and
// stamps from HLCs with different IDs never collide. Safe for
// concurrent use.
type HLC struct {
	clk  Clock
	id   uint64
	last atomic.Uint64
}

// NewHLC returns an HLC reading clk and stamping id.
func NewHLC(clk Clock, id uint16) *HLC {
	return &HLC{clk: clk, id: uint64(id)}
}

// Next returns a stamp greater than every stamp it returned before.
func (h *HLC) Next() uint64 {
	for {
		stamp := uint64(h.clk.Now().UnixNano())<<16 | h.id
		last := h.last.Load()
		if stamp <= last {
			stamp = last + 1<<16 | h.id
		}
		if h.last.CompareAndSwap(last, stamp) {
			return stamp
		}
	}
}
