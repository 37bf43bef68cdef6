// Package storage implements the SCADS storage engine: a log-structured
// merge store with named keyspaces ("namespaces"). Each namespace is an
// independent LSM stack — skiplist memtable, write-ahead log, and a set
// of immutable SSTables — supporting exactly the access paths the paper
// allows: point gets, point puts/deletes, and bounded contiguous range
// scans (§3.1: "any query must be a lookup over a bounded contiguous
// range of an index").
//
// The engine substitutes for Cassandra in the paper's implementation
// plan (§3.4): SCADS needs an ordered, durable, replicable store with
// predictable per-operation cost, which this provides from scratch.
//
// Two cross-cutting layers wrap the per-namespace LSM stacks:
//
//   - One read cache, BlockCache, shared by every namespace's SSTables
//     and keyed (table path, block index). Tables are immutable, so a
//     cached block never goes stale and no write touches the cache; a
//     point read resolves the memtables and every table by version, and
//     a block hit only spares the table read its pread and checksum
//     pass.
//
//   - A batched write path: ApplyBatch lands a whole record group with
//     one lock acquisition and one WAL write, and with
//     Options.SyncWrites the WAL's group commit (wal.AppendGroup /
//     SyncGroup) shares a single fsync across concurrent writers.
//     Replication and index upkeep ship a node's records in one
//     multi-record MethodApply, which cluster.Node lands here as one
//     batch.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scads/internal/clock"
	"scads/internal/memtable"
	"scads/internal/sstable"
	"scads/internal/wal"
)

// Options configure an Engine.
type Options struct {
	// Dir is the data directory. Empty means fully in-memory (no WAL,
	// no SSTables), which the cluster simulator uses to run thousands
	// of nodes cheaply.
	Dir string
	// MemtableBytes is the flush threshold per namespace. Default 4 MiB.
	MemtableBytes int64
	// MaxTables triggers background size-tiered compaction when a
	// namespace accumulates more SSTables than this. Default 4.
	MaxTables int
	// Clock supplies version timestamps. Default: the real clock.
	Clock clock.Clock
	// NodeID is mixed into generated versions so writes from different
	// nodes never collide exactly. 16 bits are used.
	NodeID uint16
	// CacheBytes is deprecated and adds to the block cache's budget:
	// 0 adds the default (32 MiB), negative adds nothing. It remains
	// because the benchmark module sets it; size the one read cache
	// with BlockCacheBytes and set CacheBytes negative.
	CacheBytes int64
	// BlockCacheBytes adds to the budget of the engine-wide block cache
	// shared by every namespace's SSTables (see BlockCache); 0 or
	// negative adds nothing. The cache holds CacheBytes' share plus
	// this, and with neither there is none: the raw block-read path,
	// CacheBytes -1 and BlockCacheBytes 0, used by the e17 ablation.
	// An in-memory engine has no tables and builds no cache.
	BlockCacheBytes int64
	// CompactionRateBytes throttles each background tier merge to this
	// many input bytes per second so compaction can never monopolise
	// the disk during a fence handoff. 0 means unlimited. The major
	// compaction of a TruncateRange is never throttled: it sits on the
	// critical path of migration teardown.
	CompactionRateBytes int64
	// SyncWrites makes every accepted mutation durable before it is
	// acknowledged, using the WAL's group commit so concurrent writers
	// share fsyncs. Default false: SCADS acknowledges on replication
	// (§3.3.1), syncing at flush boundaries.
	SyncWrites bool
}

const (
	defaultCacheBytes = 32 << 20
	// compactionParallelism bounds how many background tier merges run
	// concurrently across the whole engine.
	compactionParallelism = 2
)

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxTables <= 0 {
		o.MaxTables = 4
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = defaultCacheBytes
	}
	return o
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("storage: engine closed")

var namespaceNameRE = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_.-]*$`)

// Engine owns a set of namespaces.
type Engine struct {
	opts       Options
	blockCache *BlockCache // nil when disabled

	// compactSem bounds concurrent background tier merges engine-wide.
	compactSem chan struct{}

	mu         sync.RWMutex
	namespaces map[string]*Namespace
	closed     bool

	hlc *clock.HLC
}

// Open creates an Engine, recovering any namespaces present in the
// data directory.
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{
		opts:       opts,
		namespaces: make(map[string]*Namespace),
		compactSem: make(chan struct{}, compactionParallelism),
		hlc:        clock.NewHLC(opts.Clock, opts.NodeID),
	}
	if opts.Dir == "" {
		return e, nil
	}
	if n := max(opts.CacheBytes, 0) + max(opts.BlockCacheBytes, 0); n > 0 {
		e.blockCache = NewBlockCache(n, cacheShards)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if _, err := e.Namespace(ent.Name()); err != nil {
			return nil, fmt.Errorf("storage: recover namespace %q: %w", ent.Name(), err)
		}
	}
	return e, nil
}

// Namespace returns the named namespace, creating (or recovering) it on
// first use. The name is validated only on that first use: every
// data-plane request to the node comes through here, and an open
// namespace's name has passed the check already.
func (e *Engine) Namespace(name string) (*Namespace, error) {
	e.mu.RLock()
	ns, ok := e.namespaces[name]
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return ns, nil
	}

	if !namespaceNameRE.MatchString(name) {
		return nil, fmt.Errorf("storage: invalid namespace name %q", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if ns, ok := e.namespaces[name]; ok {
		return ns, nil
	}
	ns, err := e.openNamespace(name)
	if err != nil {
		return nil, err
	}
	e.namespaces[name] = ns
	return ns, nil
}

// Namespaces returns the names of all open namespaces, sorted.
func (e *Engine) Namespaces() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.namespaces))
	for n := range e.namespaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NextVersion returns the next stamp of the node's hybrid logical
// clock: strictly increasing, and never equal to another node's.
func (e *Engine) NextVersion() uint64 { return e.hlc.Next() }

// Clock is the clock the engine was opened with (Options.Clock).
func (e *Engine) Clock() clock.Clock { return e.opts.Clock }

// Close flushes and closes every namespace.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var firstErr error
	for _, ns := range e.namespaces {
		if err := ns.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *Engine) openNamespace(name string) (*Namespace, error) {
	ns := &Namespace{
		name:   name,
		engine: e,
		mem:    memtable.New(int64(e.opts.NodeID) + 1),
		// A fresh epoch per open: migration watermarks from a previous
		// process lifetime must not validate against the new (empty)
		// in-memory delta log. NextVersion is a hybrid logical clock,
		// so epochs are unique across restarts.
		applyEpoch: e.NextVersion(),
	}
	if e.opts.Dir == "" {
		return ns, nil
	}
	ns.dir = filepath.Join(e.opts.Dir, name)
	if err := os.MkdirAll(ns.dir, 0o755); err != nil {
		return nil, err
	}

	// Recover SSTables (sorted by sequence number, newest first).
	entries, err := os.ReadDir(ns.dir)
	if err != nil {
		return nil, err
	}
	var tableSeqs []uint64
	for _, ent := range entries {
		n := ent.Name()
		if strings.HasSuffix(n, ".sst"+sstable.TmpSuffix) {
			// A table the crash caught unfinished: its records are
			// still in the WAL (a flush) or in its inputs (a merge).
			if err := os.Remove(filepath.Join(ns.dir, n)); err != nil {
				return nil, err
			}
			continue
		}
		if !strings.HasSuffix(n, ".sst") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(n, ".sst"), 10, 64)
		if err != nil {
			continue
		}
		tableSeqs = append(tableSeqs, seq)
	}
	sort.Slice(tableSeqs, func(i, j int) bool { return tableSeqs[i] > tableSeqs[j] })
	for _, seq := range tableSeqs {
		r, err := ns.openTable(ns.tablePath(seq))
		if err != nil {
			return nil, err
		}
		ns.tables = append(ns.tables, r)
		if seq >= ns.tableSeq {
			ns.tableSeq = seq + 1
		}
	}

	// Recover the WAL into the memtable.
	log, recovered, err := wal.Open(filepath.Join(ns.dir, "wal"), nil)
	if err != nil {
		return nil, err
	}
	ns.log = log
	for _, rec := range recovered {
		ns.mem.Put(rec)
	}
	return ns, nil
}

// BlockCache exposes the engine's block cache (nil when
// disabled) for metrics and tests.
func (e *Engine) BlockCache() *BlockCache { return e.blockCache }

// Stats summarises engine state for metrics and the director.
type Stats struct {
	Namespaces    int
	MemtableBytes int64
	TableCount    int
	RecordCount   int64
	// Cache is always zero: the engine's one read cache is BlockCache.
	// It keeps its name and fields because the benchmark module reads
	// them.
	Cache      CacheStats
	BlockCache BlockCacheStats
}

// Stats returns aggregate statistics across namespaces.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var s Stats
	s.Namespaces = len(e.namespaces)
	if e.blockCache != nil {
		s.BlockCache = e.blockCache.Stats()
	}
	for _, ns := range e.namespaces {
		ns.mu.RLock()
		s.MemtableBytes += ns.mem.Bytes()
		s.TableCount += len(ns.tables)
		s.RecordCount += int64(ns.mem.Len())
		for _, t := range ns.tables {
			s.RecordCount += int64(t.Count())
		}
		ns.mu.RUnlock()
	}
	return s
}
