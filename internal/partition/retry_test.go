package partition

import (
	"errors"
	"slices"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/record"
	"scads/internal/rpc"
)

// skipClock is a virtual clock whose Sleep advances it. The retry loop
// under test is the only sleeper, so pauses cost no wall time and the
// elapsed time is exact.
type skipClock struct {
	*clock.Virtual
	sleeps []time.Duration
}

func (c *skipClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.Advance(d)
}

// scriptTransport answers every call from a script and counts calls
// per address.
type scriptTransport struct {
	script func(addr string, req rpc.Request) (rpc.Response, error)
	calls  map[string]int
}

func (s *scriptTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	s.calls[addr]++
	return s.script(addr, req)
}

// retryRig is a router over a scripted transport and a skip clock, with
// nodes n1 and n2 (addresses "n1", "n2") up in the directory and one
// range replicated on both.
type retryRig struct {
	router *Router
	clk    *skipClock
	start  time.Time
	tr     *scriptTransport
	dir    *cluster.Directory
	m      *Map
}

func newRetryRig(t *testing.T, script func(addr string, req rpc.Request) (rpc.Response, error)) *retryRig {
	t.Helper()
	start := time.Unix(1000, 0)
	rig := &retryRig{
		clk:   &skipClock{Virtual: clock.NewVirtual(start)},
		start: start,
		tr:    &scriptTransport{script: script, calls: make(map[string]int)},
	}
	rig.dir = cluster.NewDirectory(rig.clk)
	for _, id := range []string{"n1", "n2"} {
		rig.dir.Join(id, id)
		rig.dir.MarkUp(id)
	}
	rig.router = NewRouter(rig.tr, rig.dir)
	rig.router.clk = rig.clk
	rig.m, _ = NewMap([]string{"n1", "n2"})
	rig.router.SetMap("ns", rig.m)
	return rig
}

func (rig *retryRig) elapsed() time.Duration { return rig.clk.Now().Sub(rig.start) }

func wireErr(err error) (rpc.Response, error) {
	return rpc.Response{Err: rpc.ErrString(err)}, nil
}

// The four coordinator paths, each as "run it and give me the error".
var retryOps = []struct {
	name string
	run  func(r *Router) error
}{
	{"get", func(r *Router) error { _, _, _, err := r.Get("ns", []byte("k"), ReadAny); return err }},
	{"put", func(r *Router) error { _, _, err := r.Put("ns", []byte("k"), []byte("v")); return err }},
	{"apply", func(r *Router) error {
		_, err := r.Deliver(rpc.Request{Method: rpc.MethodApply, Namespace: "ns"}, []record.Record{{Key: []byte("k"), Version: 1}}, make([]Range, 1))
		return err
	}},
	{"scan", func(r *Router) error {
		_, err := r.ScanOpts("ns", nil, nil, ScanOptions{Limit: 10, Policy: ReadAny})
		return err
	}},
}

// TestGiveUpReportsLastFault: whatever fault a request is still meeting
// when its allowance runs out, every path waits the same pauses for the
// same total and reports the same classified error.
func TestGiveUpReportsLastFault(t *testing.T) {
	const hint = 7 * time.Millisecond
	faults := []struct {
		name   string
		answer func() (rpc.Response, error)
		pause  time.Duration
		spent  time.Duration
		check  func(error) bool
	}{
		{
			name:   "every replica sheds",
			answer: func() (rpc.Response, error) { return wireErr(rpc.Overloaded(hint, "test shed")) },
			pause:  hint, spent: rpc.DownRetryBudget,
			check: func(err error) bool { return rpc.IsOverloaded(err) && rpc.RetryAfter(err) == hint },
		},
		{
			name:   "every replica unreachable",
			answer: func() (rpc.Response, error) { return rpc.Response{}, rpc.ErrUnreachable },
			pause:  rpc.DownRetryPause, spent: rpc.DownRetryBudget,
			check: func(err error) bool { return errors.Is(err, ErrNoReplicaAvailable) },
		},
		{
			// Not in the unreachable taxonomy, but a transport that
			// failed still means the replica could not answer.
			name:   "transport fails unclassified",
			answer: func() (rpc.Response, error) { return rpc.Response{}, errors.New("rpc: transport closed") },
			pause:  rpc.DownRetryPause, spent: rpc.DownRetryBudget,
			check: func(err error) bool { return errors.Is(err, ErrNoReplicaAvailable) },
		},
		{
			name:   "range stays fenced",
			answer: func() (rpc.Response, error) { return wireErr(rpc.ErrFenced) },
			pause:  rpc.FenceRetryPause, spent: rpc.FenceRetryLimit * rpc.FenceRetryPause,
			check: func(err error) bool { return errors.Is(err, rpc.ErrFenced) },
		},
	}
	for _, f := range faults {
		for _, op := range retryOps {
			t.Run(f.name+"/"+op.name, func(t *testing.T) {
				rig := newRetryRig(t, func(string, rpc.Request) (rpc.Response, error) { return f.answer() })
				err := op.run(rig.router)
				if !f.check(err) {
					t.Fatalf("gave up with %v", err)
				}
				if got := rig.elapsed(); got != f.spent {
					t.Fatalf("gave up after %v, want exactly %v", got, f.spent)
				}
				// Every pause is the fault's own, bar a last one cut
				// to what the budget had left.
				for i, d := range rig.clk.sleeps[:len(rig.clk.sleeps)-1] {
					if d != f.pause {
						t.Fatalf("pause %d was %v, want %v", i, d, f.pause)
					}
				}
			})
		}
	}
}

// TestNodeSemanticErrorIsTheAnswer: an error outside the fault taxonomy
// that a node itself reports ends the request at once, verbatim.
func TestNodeSemanticErrorIsTheAnswer(t *testing.T) {
	for _, op := range retryOps {
		rig := newRetryRig(t, func(string, rpc.Request) (rpc.Response, error) {
			return wireErr(errors.New("storage: engine closed"))
		})
		err := op.run(rig.router)
		if err == nil || err.Error() != "storage: engine closed" {
			t.Fatalf("%s: got %v", op.name, err)
		}
		if n := rig.tr.calls["n1"] + rig.tr.calls["n2"]; n != 1 || rig.elapsed() != 0 {
			t.Fatalf("%s: %d attempts over %v, want one and no wait", op.name, n, rig.elapsed())
		}
	}
}

// scriptBounds is the coordinator's side of the staleness bounds as a
// test sets it: which nodes are over the bound (by time elapsed on the
// rig's clock), what the priority order says, and what was noted.
type scriptBounds struct {
	rig             *retryRig
	stale           func(node string, elapsed time.Duration) bool
	serve           bool
	served, refused int
}

func (b *scriptBounds) Stale(_, node string) bool { return b.stale(node, b.rig.elapsed()) }
func (b *scriptBounds) ServeStale(string) bool    { return b.serve }
func (b *scriptBounds) Clock() clock.Clock        { return b.rig.clk }
func (b *scriptBounds) Contended(_ string, served bool) {
	if served {
		b.served++
	} else {
		b.refused++
	}
}

// TestStaleAndRefusedRounds drives every transition of the stale class
// and of a refused answer. Replicas are n1 (primary) and n2; the rig's
// first ReadAny rotation starts at n2. n2 answers version 2, n1 what
// the row scripts.
func TestStaleAndRefusedRounds(t *testing.T) {
	const hint = 7 * time.Millisecond
	down := func(time.Duration, int) (rpc.Response, error) { return rpc.Response{}, rpc.ErrUnreachable }
	n2Stale := func(node string, _ time.Duration) bool { return node == "n2" }
	atLeast := func(floor uint64) func(uint64, bool) bool {
		return func(ver uint64, _ bool) bool { return ver >= floor }
	}
	rows := []struct {
		name   string
		n1     func(elapsed time.Duration, call int) (rpc.Response, error)
		n1Took time.Duration // on the rig's clock, per attempt
		stale  func(node string, elapsed time.Duration) bool
		serve  bool
		policy ReadPolicy
		stall  time.Duration
		accept func(uint64, bool) bool

		wantVer         uint64 // of the answer; 0 when the read fails
		wantErr         error
		wantElapsed     time.Duration
		served, refused int
		calls           map[string]int
	}{
		{
			// Stale outranks down: the verdict comes before any pause.
			name: "stale, availability first: the held-back replica serves at once",
			n1:   down, stale: n2Stale, serve: true,
			wantVer: 2, served: 1, calls: map[string]int{"n1": 1, "n2": 1},
		},
		{
			name: "stale, read consistency first: gives up at once, the stale replica unasked",
			n1:   down, stale: n2Stale,
			wantErr: ErrStaleReplicas, refused: 1, calls: map[string]int{"n1": 1},
		},
		{
			name: "stale with a stall allowance: polls until a replica is back inside the bound",
			n1:   down, stall: time.Minute,
			stale:   func(node string, elapsed time.Duration) bool { return node == "n2" && elapsed < 4*stalePoll },
			wantVer: 2, wantElapsed: 4 * stalePoll, calls: map[string]int{"n1": 4, "n2": 1},
		},
		{
			name: "stall allowance spent: gives up, noted once",
			n1:   down, stale: n2Stale, stall: 10 * stalePoll,
			wantErr: ErrStaleReplicas, wantElapsed: 10 * stalePoll, refused: 1, calls: map[string]int{"n1": 11},
		},
		{
			// A fresh replica that burns a dial timeout per round: the
			// third round ends at the deadline set after the first.
			name: "time spent in attempts is charged to the stall allowance",
			n1:   down, n1Took: 4 * stalePoll, stale: n2Stale, stall: 10 * stalePoll,
			wantErr: ErrStaleReplicas, wantElapsed: 14 * stalePoll, refused: 1, calls: map[string]int{"n1": 3},
		},
		{
			name: "availability first never stalls",
			n1:   down, stale: n2Stale, serve: true, stall: time.Minute,
			wantVer: 2, served: 1, calls: map[string]int{"n1": 1, "n2": 1},
		},
		{
			// A fresh replica that shed the read will answer after its
			// hint: worth waiting for under either priority order.
			name: "overload outranks stale",
			n1: func(_ time.Duration, call int) (rpc.Response, error) {
				if call == 1 {
					return wireErr(rpc.Overloaded(hint, "test shed"))
				}
				return rpc.Response{Found: true, Version: 1}, nil
			},
			stale: n2Stale, serve: true,
			wantVer: 1, wantElapsed: hint, calls: map[string]int{"n1": 2},
		},
		{
			name: "every replica stale: asked in rotation order",
			n1:   down, stale: func(string, time.Duration) bool { return true }, serve: true,
			wantVer: 2, served: 1, calls: map[string]int{"n2": 1},
		},
		{
			name:    "Primary holds nothing back",
			n1:      func(time.Duration, int) (rpc.Response, error) { return rpc.Response{Found: true, Version: 1}, nil },
			stale:   func(string, time.Duration) bool { return true },
			policy:  Primary,
			wantVer: 1, calls: map[string]int{"n1": 1},
		},
		{
			name:    "a refused answer fails over to the primary",
			n1:      func(time.Duration, int) (rpc.Response, error) { return rpc.Response{Found: true, Version: 3}, nil },
			accept:  atLeast(3),
			wantVer: 3, calls: map[string]int{"n1": 1, "n2": 1},
		},
		{
			name:    "every answer refused: waits like every replica down",
			n1:      func(time.Duration, int) (rpc.Response, error) { return rpc.Response{Found: true, Version: 3}, nil },
			accept:  atLeast(4),
			wantErr: ErrNoReplicaAvailable, wantElapsed: rpc.DownRetryBudget,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var rig *retryRig
			rig = newRetryRig(t, func(addr string, _ rpc.Request) (rpc.Response, error) {
				if addr == "n1" {
					rig.clk.Advance(row.n1Took)
					return row.n1(rig.elapsed(), rig.tr.calls["n1"])
				}
				return rpc.Response{Found: true, Version: 2}, nil
			})
			b := &scriptBounds{rig: rig, stale: row.stale, serve: row.serve}
			if row.stale != nil {
				rig.router.HoldBack(b)
			}
			var ver uint64
			var err error
			if row.policy == Primary {
				_, ver, _, err = rig.router.Get("ns", []byte("k"), Primary)
			} else {
				_, ver, _, err = rig.router.GetIf("ns", []byte("k"), row.stall, row.accept)
			}
			if !errors.Is(err, row.wantErr) || ver != row.wantVer {
				t.Fatalf("read = version %d, %v; want version %d, %v", ver, err, row.wantVer, row.wantErr)
			}
			if rig.elapsed() != row.wantElapsed {
				t.Errorf("took %v, want exactly %v", rig.elapsed(), row.wantElapsed)
			}
			if b.served != row.served || b.refused != row.refused {
				t.Errorf("noted %d served, %d refused; want %d, %d", b.served, b.refused, row.served, row.refused)
			}
			for addr, want := range row.calls {
				if rig.tr.calls[addr] != want {
					t.Errorf("calls = %v, want %v", rig.tr.calls, row.calls)
					break
				}
			}
			if _, asked := row.calls["n2"]; row.calls != nil && !asked && rig.tr.calls["n2"] != 0 {
				t.Errorf("n2 was asked %d times, want never", rig.tr.calls["n2"])
			}
		})
	}
}

// TestFenceAllowanceSurvivesSpentDownBudget is the PR 3 invariant: a
// write that waited out a crash failover to the last pause of its down
// budget still gets the whole fence allowance when the promoted primary
// is then fenced by the RF-repair handoff.
func TestFenceAllowanceSurvivesSpentDownBudget(t *testing.T) {
	var rig *retryRig
	fences := 0
	rig = newRetryRig(t, func(string, rpc.Request) (rpc.Response, error) {
		switch {
		case rig.elapsed() < rpc.DownRetryBudget-rpc.DownRetryPause:
			return rpc.Response{}, rpc.ErrUnreachable
		case fences < rpc.FenceRetryLimit:
			fences++
			return wireErr(rpc.ErrFenced)
		}
		return rpc.Response{Version: 9}, nil
	})
	ver, _, err := rig.router.Put("ns", []byte("k"), []byte("v"))
	if err != nil || ver != 9 {
		t.Fatalf("put after failover then handoff: ver=%d err=%v", ver, err)
	}
	if want := rpc.DownRetryBudget - rpc.DownRetryPause + rpc.FenceRetryLimit*rpc.FenceRetryPause; rig.elapsed() != want {
		t.Fatalf("waited %v, want %v", rig.elapsed(), want)
	}
}

// TestGetBatchFallbackSharesOneBudget: a multi-get whose keys have no
// serving replica costs one down-retry budget, not one per key.
func TestGetBatchFallbackSharesOneBudget(t *testing.T) {
	rig := newRetryRig(t, func(string, rpc.Request) (rpc.Response, error) {
		t.Error("a node marked down was called")
		return rpc.Response{}, rpc.ErrUnreachable
	})
	rig.dir.MarkDown("n1")
	rig.dir.MarkDown("n2")
	keys := []string{"a", "b", "c", "d", "e"}
	_, served, err := multiGet(rig.router, "ns", keys...)
	if !errors.Is(err, ErrNoReplicaAvailable) {
		t.Fatalf("multi-get = %v, want %v", err, ErrNoReplicaAvailable)
	}
	for i, rng := range served {
		if rng.Replicas != nil {
			t.Fatalf("key %d reports being served by %v", i, rng.Replicas)
		}
	}
	if rig.elapsed() != rpc.DownRetryBudget {
		t.Fatalf("%d unrouted keys waited %v, want one budget of %v", len(keys), rig.elapsed(), rpc.DownRetryBudget)
	}
}

// TestGetBatchWritePrimaryNeverReadsASecondary: a multi-get, which runs
// under Primary, whose primary is unreachable waits for it, or gives up
// after one budget, and never answers from the secondary. A multi-get
// the primary answers with an error, or with the wrong number of
// records, sends every key down the single-key path, where the keys
// share one budget.
func TestGetBatchWritePrimaryNeverReadsASecondary(t *testing.T) {
	keys := []string{"a", "b", "c"}
	row := rpc.Response{Found: true, Value: []byte("v"), Version: 1}
	rows := func(n int) (rpc.Response, error) {
		return rpc.Response{Found: true, Records: slices.Repeat([]record.Record{{Value: row.Value, Version: row.Version}}, n)}, nil
	}
	for _, tc := range []struct {
		name    string
		downFor time.Duration // how long n1 stays unreachable
		multi   func(rpc.Request) (rpc.Response, error)
		wantOK  bool
	}{
		{name: "the primary comes back: the batch waits", downFor: 3 * rpc.DownRetryPause, wantOK: true},
		{name: "the primary stays down: the batch gives up", downFor: time.Hour},
		{
			name:    "the multi-get fails: every key reads alone, under one budget",
			downFor: time.Hour,
			multi:   func(rpc.Request) (rpc.Response, error) { return wireErr(errors.New("storage: disk on fire")) },
		},
		{
			name:    "the multi-get answers short: every key reads alone, under one budget",
			downFor: time.Hour,
			multi:   func(req rpc.Request) (rpc.Response, error) { return rows(len(req.Records) - 1) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rig *retryRig
			gets := map[string]int{}
			rig = newRetryRig(t, func(addr string, req rpc.Request) (rpc.Response, error) {
				if addr != "n1" {
					t.Errorf("%s was asked under Primary", addr)
				}
				if req.Method == rpc.MethodBatch && tc.multi != nil {
					return tc.multi(req)
				}
				if req.Method == rpc.MethodGet {
					gets[string(req.Key)]++
				}
				if rig.elapsed() < tc.downFor {
					return rpc.Response{}, rpc.ErrUnreachable
				}
				if req.Method == rpc.MethodBatch {
					return rows(len(req.Records))
				}
				return row, nil
			})
			got, served, err := multiGet(rig.router, "ns", keys...)
			if tc.wantOK {
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range got {
					if r.Tombstone || string(r.Value) != "v" || served[i].Replicas[0] != "n1" {
						t.Fatalf("key %d: %+v from %v, want the primary's row", i, r, served[i].Replicas)
					}
				}
			}
			if !tc.wantOK && (!errors.Is(err, ErrNoReplicaAvailable) || rig.elapsed() != rpc.DownRetryBudget) {
				t.Fatalf("gave up with %v after %v, want %v after one budget of %v", err, rig.elapsed(), ErrNoReplicaAvailable, rpc.DownRetryBudget)
			}
			if tc.multi != nil {
				for _, k := range keys {
					if gets[k] == 0 {
						t.Errorf("key %q never read alone after the multi-get failed", k)
					}
				}
			}
		})
	}
}

// TestRetryRereadsMap: the attempt after a routing flip lands on the
// new primary, because every round resolves the range afresh.
func TestRetryRereadsMap(t *testing.T) {
	var rig *retryRig
	rig = newRetryRig(t, func(addr string, _ rpc.Request) (rpc.Response, error) {
		if addr == "n1" {
			// The donor is fenced and, by the time it says so, the
			// migration has flipped the range to n2.
			rig.m.SetReplicas([]byte("k"), []string{"n2"})
			return wireErr(rpc.ErrFenced)
		}
		return rpc.Response{Version: 3}, nil
	})
	_, replicas, err := rig.router.Put("ns", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if rig.tr.calls["n1"] != 1 || rig.tr.calls["n2"] != 1 || len(replicas) != 1 || replicas[0] != "n2" {
		t.Fatalf("calls=%v accepted by %v, want one bounce off n1 then n2", rig.tr.calls, replicas)
	}
}

// TestFirstAttemptAllocs pins the success path's allocations over
// LocalTransport at the counts measured before the request-execution
// core existed: the attempt closure and the budget stay on the stack.
func TestFirstAttemptAllocs(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("ns", m)
	key, val := []byte("k"), []byte("v")
	if _, _, err := tc.router.Put("ns", key, val); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { tc.router.Get("ns", key, Primary) }); n > 1 {
		t.Errorf("Get allocates %v per call, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { tc.router.Put("ns", key, val) }); n > 4 {
		t.Errorf("Put allocates %v per call, want <= 4", n)
	}
}
