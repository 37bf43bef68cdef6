package main

import (
	"sync"
	"time"

	"scads/internal/row"
)

// target is what the load generator drives: the real cluster, or a
// no-op in the test that proves the generator allocates nothing.
type target interface {
	Get(table string, pk row.Row) (row.Row, bool, error)
	Insert(table string, r row.Row) error
	Delete(table string, pk row.Row) error
	Query(name string, params map[string]any) ([]row.Row, error)
}

// sample is one timed op. Samples go into per-client buffers allocated
// before the timed loop.
type sample struct {
	end  int64 // completion time, ns from the end of warm-up
	lat  int64 // ns
	kind opKind
	ok   bool
}

// loadgen runs pre-built streams against a target and checks every
// result.
type loadgen struct {
	t target
	d *dataset
	// issued and acked are update_heavy's per-key write sequence:
	// highest counter sent, last counter acknowledged. A key has one
	// writing client, so neither needs a lock.
	issued, acked []int64
	// tr, when set, gets a root span around each op.
	tr *tracer
}

func newLoadgen(t target, d *dataset) *loadgen {
	return &loadgen{t: t, d: d, issued: make([]int64, len(d.ids)), acked: make([]int64, len(d.ids))}
}

// exec sends one op and reports whether the result was the right one.
func (g *loadgen) exec(o *op) bool {
	switch o.kind {
	case opGet:
		r, found, err := g.t.Get("users", o.row)
		return err == nil && found && g.checkUser(r, o.key)
	case opPut:
		g.issued[o.key] = o.counter
		if g.t.Insert("users", o.row) != nil {
			return false
		}
		g.acked[o.key] = o.counter
		return true
	case opFindUser:
		rows, err := g.t.Query("findUser", o.params)
		if err != nil || len(rows) > 1 {
			return false
		}
		if len(rows) == 0 {
			// Only a user the stream itself creates may be missing: its
			// insert can still be in flight on the other client.
			return o.user > g.d.ids[len(g.d.ids)-1]
		}
		id, _ := rows[0]["id"].(string)
		return id == o.user
	case opFriends:
		rows, err := g.t.Query("friends", o.params)
		if err != nil || len(rows) > friendsLimit {
			return false
		}
		prev := ""
		for _, r := range rows {
			f1, _ := r["f1"].(string)
			f2, _ := r["f2"].(string)
			if f1 != o.user || f2 <= prev {
				return false
			}
			prev = f2
		}
		return true
	case opBirthdays:
		rows, err := g.t.Query("friendsWithUpcomingBirthdays", o.params)
		if err != nil || len(rows) > birthdaysLimit {
			return false
		}
		var prev int64
		for _, r := range rows {
			b, ok := r["birthday"].(int64)
			if !ok || b < prev {
				return false
			}
			prev = b
		}
		return true
	case opAddFriend:
		return g.t.Insert("friendships", o.row) == nil
	case opRemoveFriend:
		return g.t.Delete("friendships", o.row) == nil
	case opSocialUser:
		return g.t.Insert("users", o.row) == nil
	}
	return false
}

// checkUser verifies a users row read back: it is the row loaded for
// the key, and its counter is one the key's writer has sent.
func (g *loadgen) checkUser(r row.Row, k int32) bool {
	d := g.d
	id, _ := r["id"].(string)
	name, _ := r["name"].(string)
	bio, _ := r["bio"].(string)
	bday, _ := r["birthday"].(int64)
	counter, ok := r["counter"].(int64)
	return ok && id == d.ids[k] && name == d.names[k] && bio == d.bio(int(k)) &&
		bday == birthdayOf(int(k)) && counter >= 0 && counter <= g.issued[k]
}

// closedLoop runs one client's stream until the deadline: the next op
// is sent when the previous one returns. Ops that start at or after
// from are recorded in buf, which is allocated before the loop.
func (g *loadgen) closedLoop(ops []op, wrap bool, start time.Time, from, to time.Duration, buf []sample) []sample {
	for i := 0; ; i++ {
		if i == len(ops) {
			if !wrap {
				return buf
			}
			i = 0
		}
		o := &ops[i]
		t0 := time.Now()
		at := t0.Sub(start)
		if at >= to {
			return buf
		}
		var root *span
		if g.tr != nil {
			root = g.tr.beginRoot(o.kind)
		}
		ok := g.exec(o)
		t1 := time.Now()
		if g.tr != nil {
			g.tr.endRoot(root, t0, t1)
		}
		if at >= from && len(buf) < cap(buf) {
			buf = append(buf, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), kind: o.kind, ok: ok})
		}
	}
}

// phase is the timing of one driven interval: an unrecorded warm-up,
// then a number of equal windows, of which the timings use the
// calmest (summary.calm).
type phase struct {
	warm    time.Duration
	window  time.Duration
	windows int
}

func (p phase) end() time.Duration { return p.warm + time.Duration(p.windows)*p.window }

// drive runs one closed-loop client per stream through the phase. It
// returns the recorded samples and the process counters read at every
// window boundary (windows+1 of them).
func (g *loadgen) drive(st *streams, ph phase) ([]sample, []procSnap) {
	wrap := g.d.def.wraps()
	bufs := make([][]sample, len(st.clients))
	for c := range bufs {
		bufs[c] = make([]sample, 0, g.d.def.maxOps(ph.end()))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := range st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bufs[c] = g.closedLoop(st.clients[c], wrap, start, ph.warm, ph.end(), bufs[c])
		}(c)
	}
	snaps := make([]procSnap, 0, ph.windows+1)
	for w := 0; w <= ph.windows; w++ {
		time.Sleep(time.Until(start.Add(ph.warm + time.Duration(w)*ph.window)))
		snaps = append(snaps, readProc())
	}
	wg.Wait()
	origin := int64(snaps[0].at.Sub(start))
	var all []sample
	for _, b := range bufs {
		for _, x := range b {
			x.end -= origin // from the first reading of the counters
			all = append(all, x)
		}
	}
	return all, snaps
}
