package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"scads"
	"scads/internal/storage"
)

// traceSpanCapacity bounds the spans a traced phase keeps; a phase of
// a few seconds with one client records a tenth of this.
const traceSpanCapacity = 1 << 20

// counters is every count the system keeps about itself, read before
// and after a phase.
type counters struct {
	engines       [numNodes]storage.Stats
	reads, writes int64
	cluster       scads.Stats
}

func readCounters(s *stack) counters {
	c := counters{cluster: s.cluster.Stats()}
	for i, e := range s.engines {
		c.engines[i] = e.Stats()
		c.reads += s.nodes[i].ReadCount()
		c.writes += s.nodes[i].WriteCount()
	}
	return c
}

// tableWatcher polls the nodes' directories and remembers every table
// file it ever saw with its last size: the sum is what flushes and
// compactions wrote, including tables a later compaction deleted.
type tableWatcher struct {
	root string
	stop chan struct{}
	once sync.Once
	done sync.WaitGroup
	seen map[string]int64
}

func watchTables(root string) *tableWatcher {
	w := &tableWatcher{root: root, stop: make(chan struct{}), seen: make(map[string]int64)}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			w.poll()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *tableWatcher) poll() {
	// Errors are files vanishing mid-walk under a compaction: the next
	// poll sees the directory as it then is.
	_ = filepath.WalkDir(w.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".sst") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			w.seen[path] = info.Size()
		}
		return nil
	})
}

// finish stops the watcher and returns the files seen, their summed
// final sizes, and the bytes of the tables that still exist.
func (w *tableWatcher) finish() (files int, written, live int64) {
	w.once.Do(func() { close(w.stop) })
	w.done.Wait()
	w.poll()
	for path, size := range w.seen {
		written += size
		if _, err := os.Stat(path); err == nil {
			live += size
		}
	}
	return len(w.seen), written, live
}

// traced is the run behind every per-layer metric: the workload as in
// endToEnd with the system's own counters read around it; then one
// client untraced and one client traced over the same deployment;
// then the cut-point replays and the layer loops.
func traced(c runConfig) (*metricSet, result, error) {
	def := c.def
	d := newDataset(def, c.seed, c.tiny)
	// Half the measured time goes to the two-client phase, a quarter
	// each to the one-client phases.
	phA := c.phase(c.seconds / 2)
	phOne := c.phase(c.seconds / 4)
	stA := genStreams(d, c.seed, numClients, c.streamLen(phA.end()))
	plan := newLoadPlan(d)
	userBytes, err := d.userBytes()
	if err != nil {
		return nil, result{}, err
	}

	dir, err := c.runDir("traced")
	if err != nil {
		return nil, result{}, err
	}
	tr := newTracer(traceSpanCapacity)
	watcher := watchTables(dir)
	defer watcher.finish()
	s, _, err := setUp(dir, d, plan, tr.shims())
	if err != nil {
		return nil, result{}, err
	}
	defer func() {
		s.close()
		_ = os.RemoveAll(dir) // leftovers are under the ignored build directory
	}()
	plan = nil
	runtime.GC()
	ms := &metricSet{}
	g := newLoadgen(s.cluster, d)

	// Phase A: the workload itself, counters around it.
	before := readCounters(s)
	samplesA, snapsA := g.drive(stA, phA)
	after := readCounters(s)
	sumA := summarize(samplesA, snapsA)
	printHeader(c, stA, phA)

	// Phases C and B: one client, untraced then traced.
	stC := genStreams(d, c.seed+1, 1, c.streamLen(phOne.end()))
	samplesC, snapsC := g.drive(stC, phOne)
	sumC := summarize(samplesC, snapsC)
	stB := genStreams(d, c.seed+2, 1, c.streamLen(phOne.end()))
	g.tr = tr
	tr.start(s)
	samplesB, snapsB := g.drive(stB, phOne)
	tr.stop()
	g.tr = nil
	sumB := summarize(samplesB, snapsB)
	digest := tr.digest()

	attempted := sumA.attempted + sumB.attempted + sumC.attempted
	failed := attempted - sumA.ok - sumB.ok - sumC.ok
	backlog, _ := s.cluster.MaintenanceBacklog(0)
	if def.writeFrac > 0 {
		// Before the replays write below the coordinator.
		wrong, err := verifyReplicas(c, s, g)
		if err != nil {
			return nil, result{}, err
		}
		failed += wrong
	} else if err := s.quiesce(); err != nil {
		return nil, result{}, err
	}
	quiet := readCounters(s)
	sumA.addEndToEnd(&metricSet{}, ms) // the gated metrics come from --trace 0 runs; keep the tails
	addCounterMetrics(ms, sumA, before, after, quiet, snapsA)
	ms.add("scads.maint_backlog_end", "count", float64(backlog))

	// Cut-point replays on the same deployment, then the layer loops.
	if err := addCutMetrics(ms, s, tr, d, c, samplesC); err != nil {
		return nil, result{}, err
	}
	addTraceMetrics(ms, digest, sumB, sumC)
	in, err := newLayerInput(d)
	if err != nil {
		return nil, result{}, err
	}
	if err := codecLayers(ms, in); err != nil {
		return nil, result{}, err
	}
	memtableLayer(ms, in)
	if err := sstableLayer(ms, in, dir); err != nil {
		return nil, result{}, err
	}
	if err := walLayer(ms, in, dir); err != nil {
		return nil, result{}, err
	}
	if err := admissionLayer(ms); err != nil {
		return nil, result{}, err
	}
	if err := rpcLayer(ms); err != nil {
		return nil, result{}, err
	}
	if err := viewLayer(ms, s, d, slices.Concat(stA.clients[0], stB.clients[0])); err != nil {
		return nil, result{}, err
	}

	// Space and write amplification, once everything has settled.
	if err := s.settle(); err != nil {
		return nil, result{}, err
	}
	files, written, live := watcher.finish()
	perReplica := float64(userBytes) * float64(def.rf)
	ms.add("storage.table_files_seen", "count", float64(files))
	ms.add("storage.sst_bytes_written_per_user_byte", "ratio", ratio(float64(written), perReplica))
	ms.add("storage.disk_bytes_per_user_byte", "ratio", ratio(float64(live), perReplica))
	end := readProc()
	ms.add("process.peak_rss_mb", "MB", float64(end.maxRSSKiB)/1024)
	ms.add("process.heap_inuse_mb_end", "MB", float64(end.heapInuse)/(1<<20))

	out := c.traceOut
	if out == "" {
		out = filepath.Join(filepath.Dir(filepath.Clean(c.dataRoot)), "trace-"+def.name+".json")
	}
	if err := tr.writeSpans(out); err != nil {
		return nil, result{}, err
	}
	fmt.Fprintf(c.out, "spans: %d written to %s, %d dropped, %d serve spans without a call span\n",
		len(tr.recorded()), out, tr.dropped(), digest.unmatchedServe)
	fmt.Fprintf(c.out, "traced root span mean %.1f us = scads self %.1f + rpc self %.1f + cluster serve %.1f (sum/root %.3f); background per op: replication %.1f, maintenance %.1f, repair %.1f us\n",
		digest.rootUs, digest.scadsSelfUs, digest.rpcSelfPerOp, digest.servePerOp, digest.selfSumRatio,
		digest.bgByOrigin[fromReplication], digest.bgByOrigin[fromMaintenance], digest.bgByOrigin[fromRepair])
	fmt.Fprintf(c.out, "attempted %d  failed %d\n", attempted, failed)
	ms.print(c.out)
	return ms, ms.result(failed == 0 && attempted > 0, attempted, failed), nil
}

// addCounterMetrics turns the counter deltas of phase A into the
// metrics of the layers that keep them.
func addCounterMetrics(ms *metricSet, sum *summary, before, after, quiet counters, snaps []procSnap) {
	ops := float64(sum.attempted)
	var hits, misses, evict, bhits, bmisses, bevict float64
	tables := 0
	for i := range after.engines {
		a, b := after.engines[i], before.engines[i]
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		evict += float64(a.Cache.Evictions - b.Cache.Evictions)
		bhits += float64(a.BlockCache.Hits - b.BlockCache.Hits)
		bmisses += float64(a.BlockCache.Misses - b.BlockCache.Misses)
		bevict += float64(a.BlockCache.Evictions - b.BlockCache.Evictions)
		tables += quiet.engines[i].TableCount
	}
	ms.add("storage.cache_hit_frac", "ratio", ratio(hits, hits+misses))
	ms.add("storage.cache_evictions_per_kop", "count", ratio(evict*1000, ops))
	ms.add("storage.blockcache_hit_frac", "ratio", ratio(bhits, bhits+bmisses))
	ms.add("storage.blockcache_evictions_per_kop", "count", ratio(bevict*1000, ops))
	ms.add("storage.tables_end", "count", float64(tables))
	ms.add("cluster.node_reads_per_op", "count", ratio(float64(after.reads-before.reads), ops))
	ms.add("cluster.node_writes_per_op", "count", ratio(float64(after.writes-before.writes), ops))

	bat := after.cluster.Batching
	bb := before.cluster.Batching
	ms.add("rpc.batcher_envelope_mean", "count", ratio(float64(bat.Batched-bb.Batched), float64(bat.Envelopes-bb.Envelopes)))
	ms.add("rpc.batcher_coalesced_frac", "ratio", ratio(float64(bat.Batched-bb.Batched), float64(bat.Calls-bb.Calls)))

	adm, admB := after.cluster.Admission, before.cluster.Admission
	shed := float64(adm.ShedQuota-admB.ShedQuota) + float64(adm.ShedOverload()-admB.ShedOverload())
	ms.add("admission.shed_frac", "ratio", ratio(shed, shed+float64(adm.Admitted-admB.Admitted)))

	writes := sum.samples[classWrite]
	rep, repB := after.cluster.Replication, before.cluster.Replication
	ms.add("replication.delivered_per_write", "count", ratio(float64(rep.Delivered-repB.Delivered), float64(writes)))
	ms.add("replication.violations", "count", float64(quiet.cluster.Replication.Violations))
	ms.add("replication.pending_end", "count", float64(quiet.cluster.Replication.Pending))

	first, last := snaps[0], snaps[len(snaps)-1]
	ms.add("process.gc_cycles", "count", float64(last.gcCycles-first.gcCycles))
	ms.add("process.gc_pause_ms_total", "ms", float64(last.gcPauseNs-first.gcPauseNs)/1e6)
	ms.add("loadgen.samples", "count", ops)
	ms.add("loadgen.failed_frac", "ratio", ratio(float64(sum.attempted-sum.ok), ops))
}

// addCutMetrics runs the replays and emits the cut-difference metrics.
// full is the one-client untraced phase: the whole stack's latency per
// replay kind, which the replays extend downwards.
func addCutMetrics(ms *metricSet, s *stack, tr *tracer, d *dataset, c runConfig, full []sample) error {
	var fullLat [numReplayKinds][]int64
	for _, x := range full {
		if k, ok := replayKindOf(x.kind); ok {
			fullLat[k] = append(fullLat[k], x.lat)
		}
	}
	ops, err := buildReplay(s, d, c.seed, c.tiny)
	if err != nil {
		return err
	}
	var t [numCuts][numReplayKinds]cutTimes
	for cu := cut(0); cu < numCuts; cu++ {
		for k := replayKind(0); k < numReplayKinds; k++ {
			if t[cu][k], err = replayCut(s, tr, cu, k, ops[cu][k]); err != nil {
				return err
			}
		}
	}
	// The layer between two cuts costs the difference of their medians,
	// each kind weighted by its share of the one-client phase.
	var fullUs, fullN [numReplayKinds]float64
	var total float64
	for k := range fullLat {
		sortInt64(fullLat[k])
		fullUs[k] = usOf(percentile(fullLat[k], 0.5))
		fullN[k] = float64(len(fullLat[k]))
		total += fullN[k]
	}
	weighted := func(cu cut) float64 {
		var sum float64
		for k := range fullN {
			sum += fullN[k] / total * t[cu][k].p50Us()
		}
		return sum
	}
	var fullMean float64
	for k := range fullN {
		fullMean += fullN[k] / total * fullUs[k]
	}
	ms.add("scads.cut_us_per_op", "us", fullMean-weighted(cutRouter))
	for k := replayKind(0); k < numReplayKinds; k++ {
		ms.addN("partition.cut_us_per_"+replayKindNames[k], "us",
			t[cutRouter][k].p50Us()-t[cutTransport][k].p50Us(), len(t[cutRouter][k].lat), "")
	}
	point := float64(len(t[cutRouter][replayGet].lat) + len(t[cutRouter][replayPut].lat))
	ms.add("partition.calls_per_op", "count", ratio(float64(t[cutRouter][replayGet].calls+t[cutRouter][replayPut].calls), point))
	ms.add("partition.subscans_per_scan", "count", ratio(float64(t[cutRouter][replayScan].calls), float64(len(t[cutRouter][replayScan].lat))))
	ms.add("rpc.cut_us_per_call", "us", weighted(cutTransport)-weighted(cutServe))
	ms.add("cluster.cut_us_per_op", "us", weighted(cutServe)-weighted(cutNamespace))
	gets, puts, scans := t[cutNamespace][replayGet], t[cutNamespace][replayPut], t[cutNamespace][replayScan]
	ms.addN("storage.get_us_p50", "us", usOf(percentile(gets.lat, 0.5)), len(gets.lat), "")
	ms.addN("storage.get_us_p99", "us", usOf(percentile(gets.lat, 0.99)), len(gets.lat), "")
	ms.addN("storage.apply_us_per_rec", "us", ratio(float64(puts.sum), float64(len(puts.lat)))/1e3, len(puts.lat), "")
	ms.addN("storage.scan_ns_per_rec", "ns", ratio(float64(scans.sum), float64(scans.records)), int(scans.records), "")

	fmt.Fprintf(c.out, "cut-point medians (us per op):%12s%12s%12s\n", "get", "put", "scan")
	fmt.Fprintf(c.out, "  %-26s%12.1f%12.1f%12.1f\n", "scads.Cluster (1 client)", fullUs[0], fullUs[1], fullUs[2])
	for cu, name := range [numCuts]string{"partition.Router", "rpc.TCPTransport.Call", "cluster.Node.Serve", "storage.Namespace"} {
		fmt.Fprintf(c.out, "  %-26s%12.1f%12.1f%12.1f\n", name, t[cu][0].p50Us(), t[cu][1].p50Us(), t[cu][2].p50Us())
	}
	return nil
}

// addTraceMetrics emits what the spans say, and how the traced phase
// compares with the untraced one before it.
func addTraceMetrics(ms *metricSet, d traceDigest, traced, untraced *summary) {
	ms.addN("scads.self_us_per_op", "us", d.scadsSelfUs, d.roots, "")
	ms.add("scads.rpc_calls_per_op", "count", d.callsPerOp)
	ms.add("rpc.self_us_per_call", "us", d.rpcSelfUs)
	ms.add("cluster.serve_us_per_get", "us", d.serveUs[0])
	ms.add("cluster.serve_us_per_put", "us", d.serveUs[1])
	ms.add("cluster.serve_us_per_scan", "us", d.serveUs[2])
	ms.add("replication.bg_busy_us_per_op", "us", d.bgBusyUsPerOp)
	meanLat := func(s *summary) float64 {
		var sum, n float64
		for c := range s.lat {
			for _, w := range s.lat[c] {
				for _, v := range w {
					sum += float64(v)
				}
				n += float64(len(w))
			}
		}
		return ratio(sum, n)
	}
	ms.add("trace.overhead_frac", "ratio", ratio(meanLat(traced), meanLat(untraced))-1)
	cut, _ := ms.get("rpc.cut_us_per_call")
	ms.add("trace.span_vs_cut_ratio", "ratio", ratio(d.rpcSelfUs, cut))
}
