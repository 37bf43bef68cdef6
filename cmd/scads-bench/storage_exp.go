package main

import (
	"fmt"
	"log"
	"maps"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scads"
	"scads/internal/expgrid"
	"scads/internal/record"
	"scads/internal/storage"
)

// runE17 is the storage-engine raw-speed experiment behind the SSTable
// block cache and background size-tiered compaction. Three phases:
//
//  1. Cache effectiveness: zipfian point reads plus range scans over a
//     flushed multi-table namespace under concurrent writes, through a
//     warm block cache. Gates the hit ratio and the p99 read
//     latency.
//  2. Correctness under churn: acknowledged-write verification while
//     background tier compaction and range truncation race the
//     readers. Wrong or missing reads are hard-zero gates.
//  3. Fence interaction: e12's migration churn over disk-backed,
//     rate-limited-compaction nodes; the fence pause must stay inside
//     the e12 bound even with the storage engine compacting under the
//     handoff, and lost, corrupted or resurrected writes abort the
//     run as they do in e12.
//
// Grid parameters: keys, value_size, reads, zipf_s, write_fraction
// (YCSB-style read/write mix in the measured phase; 0 reproduces the
// historical read-only measurement), block_cache_mb. All phase RNGs
// derive from the row seed, so a fixed-seed row replays exactly.
func runE17(p expgrid.Params) (expgrid.Metrics, error) {
	cfg := e17Config{
		keys:          p.Int("keys"),
		valueSize:     p.Int("value_size"),
		reads:         p.Int("reads"),
		zipfS:         p.Get("zipf_s"),
		writeFraction: p.Get("write_fraction"),
		cacheBytes:    int64(p.Get("block_cache_mb") * (1 << 20)),
		seed:          p.Seed,
	}
	switch {
	case cfg.keys < 1000 || cfg.keys > 999999:
		return nil, fmt.Errorf("e17: keys=%d outside 1000..999999 (6-digit key space)", cfg.keys)
	case cfg.valueSize < 8:
		return nil, fmt.Errorf("e17: value_size=%d must be >= 8 (values embed the key ordinal)", cfg.valueSize)
	case cfg.reads < 1000:
		return nil, fmt.Errorf("e17: reads=%d must be >= 1000", cfg.reads)
	case cfg.zipfS <= 1:
		return nil, fmt.Errorf("e17: zipf_s=%g must be > 1", cfg.zipfS)
	case cfg.writeFraction < 0 || cfg.writeFraction > 0.9:
		return nil, fmt.Errorf("e17: write_fraction=%g outside 0..0.9", cfg.writeFraction)
	case cfg.cacheBytes < 1<<20:
		return nil, fmt.Errorf("e17: block_cache_mb must be >= 1")
	}

	metrics := e17CacheEffectiveness(cfg)
	maps.Copy(metrics, e17CorrectnessChurn(cfg.seed))
	maps.Copy(metrics, e17FenceUnderCompaction())
	fmt.Println("\nthe block cache turns the repeated-read hot path into a map")
	fmt.Println("lookup, size-tiered background compaction keeps write stalls and")
	fmt.Println("fence pauses bounded, and the churn phases show the fast path never")
	fmt.Println("trades away read-your-acknowledged-writes correctness.")
	return metrics, nil
}

// e17Config carries the grid parameters through the three phases.
type e17Config struct {
	keys, valueSize, reads int
	zipfS, writeFraction   float64
	cacheBytes             int64
	seed                   int64
}

func e17Key(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }

func e17Value(i, valueSize int) []byte {
	v := make([]byte, valueSize)
	copy(v, strconv.Itoa(i))
	return v
}

// e17CacheEffectiveness loads a multi-table namespace and runs the
// zipfian read+scan mix (plus write_fraction in-line writes) against it
// under a concurrent writer, returning the block-cache hit ratio and
// the point read, scan and put latencies.
func e17CacheEffectiveness(cfg e17Config) expgrid.Metrics {
	if cfg.writeFraction > 0 {
		fmt.Printf("phase 1: %d zipfian ops (%.0f%% writes) over %d keys, warm block cache\n",
			cfg.reads, cfg.writeFraction*100, cfg.keys)
	} else {
		fmt.Printf("phase 1: %d zipfian reads + scans over %d keys, warm block cache\n", cfg.reads, cfg.keys)
	}
	dir, err := os.MkdirTemp("", "scads-e17-*")
	must(err)
	defer os.RemoveAll(dir)
	e, err := storage.Open(storage.Options{
		Dir:             dir,
		MemtableBytes:   256 << 10,
		MaxTables:       6,
		NodeID:          1,
		CacheBytes:      -1, // the cache is cfg.cacheBytes alone
		BlockCacheBytes: cfg.cacheBytes,
	})
	must(err)
	defer e.Close()
	ns, err := e.Namespace("bench")
	must(err)

	// Load in key order; the 256 KiB memtable flushes dozens of tables
	// and background compaction tiers them down to the MaxTables budget.
	for i := 0; i < cfg.keys; i++ {
		_, err := ns.Put(e17Key(i), e17Value(i, cfg.valueSize))
		must(err)
	}
	must(ns.Flush())
	deadline := time.Now().Add(10 * time.Second)
	for ns.TableCount() > 6 && time.Now().Before(deadline) {
		ns.WaitCompaction()
		time.Sleep(time.Millisecond)
	}

	var scanLat, putLat []time.Duration
	// Concurrent writer: keeps flush/compaction churn alive during the
	// read measurement and times each put for the stall metric.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var putMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed*1000 + 7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(cfg.keys)
			t := time.Now()
			_, err := ns.Put(e17Key(i), e17Value(i, cfg.valueSize))
			d := time.Since(t)
			must(err)
			putMu.Lock()
			putLat = append(putLat, d)
			putMu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	rng := rand.New(rand.NewSource(cfg.seed*1000 + 42))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1))
	// mixRng decides read-vs-write per measured op (YCSB-style); a
	// separate stream so write_fraction=0 replays the historical
	// read-only key sequence exactly.
	mixRng := rand.New(rand.NewSource(cfg.seed*1000 + 43))
	// Warm pass: populate the block cache.
	for i := 0; i < cfg.reads/4; i++ {
		_, _, err := ns.Get(e17Key(int(zipf.Uint64())))
		must(err)
	}
	pointLat := make([]time.Duration, 0, cfg.reads)
	for i := 0; i < cfg.reads; i++ {
		if i%50 == 49 {
			// A bounded contiguous scan rides along every 50th op.
			startKey := int(zipf.Uint64())
			n := 0
			t := time.Now()
			must(ns.ScanLive(e17Key(startKey), nil, func(record.Record) bool {
				n++
				return n < 100
			}))
			scanLat = append(scanLat, time.Since(t))
			continue
		}
		if cfg.writeFraction > 0 && mixRng.Float64() < cfg.writeFraction {
			// In-line write to a zipfian key: the mixed workload hits
			// the same hot set the reads do, so reads resolved above
			// cached blocks and memtable pressure land where they hurt.
			k := int(zipf.Uint64())
			t := time.Now()
			_, err := ns.Put(e17Key(k), e17Value(k, cfg.valueSize))
			d := time.Since(t)
			must(err)
			putMu.Lock()
			putLat = append(putLat, d)
			putMu.Unlock()
			continue
		}
		key := e17Key(int(zipf.Uint64()))
		t := time.Now()
		_, ok, err := ns.Get(key)
		pointLat = append(pointLat, time.Since(t))
		must(err)
		if !ok {
			log.Fatalf("e17: loaded key %q missing", key)
		}
	}
	close(stop)
	wg.Wait()

	hitRatio := 0.0
	if bc := e.BlockCache(); bc != nil {
		st := bc.Stats()
		if total := st.Hits + st.Misses; total > 0 {
			hitRatio = float64(st.Hits) / float64(total)
		}
	}
	return expgrid.Metrics{
		"block_cache_hit_ratio": hitRatio,
		"point_read_p99_us":     float64(percentile(pointLat, 99).Microseconds()),
		"point_read_mean_us":    float64(mean(pointLat).Nanoseconds()) / 1000,
		"scan100_p99_us":        float64(percentile(scanLat, 99).Microseconds()),
		"scan100_mean_us":       float64(mean(scanLat).Nanoseconds()) / 1000,
		"write_stall_p99_us":    float64(percentile(putLat, 99).Microseconds()),
	}
}

// e17CorrectnessChurn races verified readers against background tier
// compaction and range truncation; every read of an acknowledged key
// must return a value at least as new as its last acknowledged write,
// and truncated ranges must read empty; the run aborts on any wrong or
// missing read. Reader RNGs derive from the row seed.
func e17CorrectnessChurn(seed int64) expgrid.Metrics {
	fmt.Println("phase 2: acknowledged-read verification under compaction + truncation churn")
	dir, err := os.MkdirTemp("", "scads-e17-*")
	must(err)
	defer os.RemoveAll(dir)
	e, err := storage.Open(storage.Options{
		Dir:             dir,
		MemtableBytes:   16 << 10, // constant flush pressure
		MaxTables:       3,
		NodeID:          1,
		CacheBytes:      -1,
		BlockCacheBytes: 8 << 20,
	})
	must(err)
	ns, err := e.Namespace("churn")
	must(err)

	const nKeys = 128
	key := func(i int) []byte { return []byte(fmt.Sprintf("h-%04d", i)) }
	var acked [nKeys]atomic.Int64
	for i := 0; i < nKeys; i++ {
		_, err := ns.Put(key(i), []byte("00000001"))
		must(err)
		acked[i].Store(1)
	}

	var wrongN, missingN, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for c := int64(2); ; c++ {
			for i := 0; i < nKeys; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := ns.Put(key(i), []byte(fmt.Sprintf("%08d", c)))
				must(err)
				acked[i].Store(c)
			}
		}
	}()
	for g := 0; g < 2; g++ { // verified readers
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(nKeys)
				lo := acked[i].Load()
				v, ok, err := ns.Get(key(i))
				must(err)
				reads.Add(1)
				if !ok {
					missingN.Add(1)
					continue
				}
				if c, perr := strconv.ParseInt(string(v), 10, 64); perr != nil || c < lo {
					wrongN.Add(1)
				}
			}
		}(seed*1000 + int64(g) + 99)
	}
	wg.Add(1)
	go func() { // truncator on a disjoint prefix
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 32; i++ {
				_, err := ns.Put([]byte(fmt.Sprintf("t-%04d", i)), []byte(strconv.Itoa(round)))
				must(err)
			}
			_, err := ns.TruncateRange([]byte("t-"), []byte("t."))
			must(err)
			for i := 0; i < 32; i++ {
				if _, ok, gerr := ns.Get([]byte(fmt.Sprintf("t-%04d", i))); gerr != nil || ok {
					wrongN.Add(1) // truncated range resurrected
				}
			}
		}
	}()

	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	must(e.Close())

	if wrongN.Load() > 0 || missingN.Load() > 0 {
		log.Fatalf("e17: STORAGE ENGINE RETURNED BAD DATA UNDER CHURN: wrong=%d missing=%d", wrongN.Load(), missingN.Load())
	}
	return expgrid.Metrics{
		"verified_reads": float64(reads.Load()),
		"wrong_reads":    float64(wrongN.Load()),
		"missing_reads":  float64(missingN.Load()),
	}
}

// e17FenceUnderCompaction reruns e12's churn over disk-backed nodes
// whose storage engines are actively flushing and compacting
// (rate-limited), proving a background tier merge can never stall a
// migration fence handoff — cancellation is bounded by one
// rate-limiter slice, not by a merge's runtime — nor lose a write.
func e17FenceUnderCompaction() expgrid.Metrics {
	fmt.Println("phase 3: migration churn with disk-backed, compacting storage")
	dir, err := os.MkdirTemp("", "scads-e17-*")
	must(err)
	defer os.RemoveAll(dir)
	lc, err := scads.NewLocalCluster(3, scads.Config{
		NodeStorage: storage.Options{
			Dir:                 dir,
			MemtableBytes:       32 << 10, // flush often: tables churn during handoffs
			MaxTables:           3,
			CompactionRateBytes: 256 << 10, // slow merges: fences must cancel, not wait
		},
	})
	must(err)
	defer lc.Close()
	must(lc.DefineSchema(socialDDL))
	// Writers keep every node flushing until the ranges stop moving.
	return churn{exp: "e17", writers: 4, keys: 200, rounds: 6}.run(lc)
}
