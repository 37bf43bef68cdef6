package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"scads/internal/admission"
	"scads/internal/analyzer"
	"scads/internal/keycodec"
	"scads/internal/memtable"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/sstable"
	"scads/internal/storage"
	"scads/internal/view"
	"scads/internal/wal"
)

// Layer loops: each runs a fixed number of operations on one goroutine
// against one package's public functions, on the workload's own keys
// and rows, so its operation count repeats exactly from run to run.

// layerInput is the workload's data in the forms the loops need.
type layerInput struct {
	rows []row.Row
	recs []record.Record // rows encoded under their table keys, in key order
	ids  []string
}

const layerRows = 20_000

func newLayerInput(d *dataset) (*layerInput, error) {
	n := min(len(d.ids), layerRows)
	in := &layerInput{ids: d.ids[:n]}
	for k := 0; k < n; k++ {
		r := d.userRow(k, 0)
		key, err := usersKey(d.ids[k])
		if err != nil {
			return nil, err
		}
		val, err := row.Encode(r)
		if err != nil {
			return nil, err
		}
		in.rows = append(in.rows, r)
		in.recs = append(in.recs, record.Record{Key: key, Value: val, Version: uint64(k + 1)})
	}
	sort.Slice(in.recs, func(i, j int) bool { return bytes.Compare(in.recs[i].Key, in.recs[j].Key) < 0 })
	return in, nil
}

func (in *layerInput) userBytes() int64 {
	var n int64
	for _, r := range in.recs {
		n += int64(len(r.Key) + len(r.Value))
	}
	return n
}

// nsPer times f, which performs n operations, and returns ns per op.
func nsPer(n int, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return ratio(float64(time.Since(start)), float64(n)), err
}

// allocsDuring returns the heap allocations f makes.
func allocsDuring(f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// sink keeps results alive so the compiler cannot drop the loops.
var sink int

func codecLayers(ms *metricSet, in *layerInput) error {
	n := len(in.rows)
	var buf []byte
	ns, err := nsPer(n, func() error {
		for _, r := range in.rows {
			var err error
			if buf, err = row.AppendEncode(buf[:0], r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.add("row.encode_ns", "ns", ns)

	decode := func() error {
		for i := range in.recs {
			r, err := row.Decode(in.recs[i].Value)
			if err != nil {
				return err
			}
			sink += len(r)
		}
		return nil
	}
	if ns, err = nsPer(n, decode); err != nil {
		return err
	}
	ms.add("row.decode_ns", "ns", ns)
	allocs, err := allocsDuring(decode)
	if err != nil {
		return err
	}
	ms.add("row.decode_allocs", "count", allocs/float64(n))

	if ns, err = nsPer(n, func() error {
		for _, id := range in.ids {
			var err error
			if buf, err = keycodec.Append(buf[:0], id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ms.add("keycodec.encode_ns", "ns", ns)

	var framed [][]byte
	ns, _ = nsPer(n, func() error {
		for i := range in.recs {
			buf = in.recs[i].AppendBinary(buf[:0])
		}
		return nil
	})
	ms.add("record.encode_ns", "ns", ns)
	for i := range in.recs {
		framed = append(framed, in.recs[i].AppendBinary(nil))
	}
	if ns, err = nsPer(n, func() error {
		for _, b := range framed {
			r, _, err := record.DecodeBinaryAlias(b)
			if err != nil {
				return err
			}
			sink += len(r.Key)
		}
		return nil
	}); err != nil {
		return err
	}
	ms.add("record.decode_alias_ns", "ns", ns)
	return nil
}

func memtableLayer(ms *metricSet, in *layerInput) {
	n := len(in.recs)
	m := memtable.New(1)
	// Insert in the workload's row order, not key order: a skiplist fed
	// ascending keys takes its cheapest path.
	ns, _ := nsPer(n, func() error {
		for i := 0; i < n; i++ {
			m.Put(in.recs[(i*7919)%n])
		}
		return nil
	})
	ms.add("memtable.put_ns", "ns", ns)
	ns, _ = nsPer(n, func() error {
		for i := 0; i < n; i++ {
			if _, ok := m.Get(in.recs[(i*104729)%n].Key); ok {
				sink++
			}
		}
		return nil
	})
	ms.add("memtable.get_ns", "ns", ns)
	ns, _ = nsPer(n, func() error {
		m.Scan(nil, nil, func(r record.Record) bool { sink += len(r.Key); return true })
		return nil
	})
	ms.add("memtable.scan_ns_per_rec", "ns", ns)
}

func sstableLayer(ms *metricSet, in *layerInput, dir string) error {
	n := len(in.recs)
	path := filepath.Join(dir, "layer.sst")
	var rd *sstable.Reader
	ns, err := nsPer(n, func() error {
		w, err := sstable.NewWriter(path)
		if err != nil {
			return err
		}
		for _, r := range in.recs {
			if err := w.Add(r); err != nil {
				_ = w.Abort() // the Add error is the one to report
				return err
			}
		}
		return w.Finish()
	})
	if err != nil {
		return err
	}
	ms.add("sstable.write_ns_per_rec", "ns", ns)
	if rd, err = sstable.Open(path); err != nil {
		return err
	}
	defer rd.Close()
	ms.add("sstable.file_bytes_per_user_byte", "ratio", ratio(float64(rd.SizeBytes()), float64(in.userBytes())))

	gets := func() error {
		for i := 0; i < n; i++ {
			r, ok, err := rd.Get(in.recs[(i*7919)%n].Key)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("sstable: key %d missing", i)
			}
			sink += len(r.Value)
		}
		return nil
	}
	if ns, err = nsPer(n, gets); err != nil {
		return err
	}
	ms.add("sstable.get_us_cold", "us", ns/1e3)
	rd.SetBlockCache(storage.NewBlockCache(64<<20, 16))
	if err = gets(); err != nil { // fill the block cache
		return err
	}
	if ns, err = nsPer(n, gets); err != nil {
		return err
	}
	ms.add("sstable.get_us_warm", "us", ns/1e3)
	rd.SetBlockCache(nil)
	if ns, err = nsPer(n, func() error {
		return rd.Scan(nil, nil, func(r record.Record) bool { sink += len(r.Key); return true })
	}); err != nil {
		return err
	}
	ms.add("sstable.scan_ns_per_rec", "ns", ns)
	return nil
}

func walLayer(ms *metricSet, in *layerInput, dir string) error {
	log, _, err := wal.Open(filepath.Join(dir, "layer-wal"), nil)
	if err != nil {
		return err
	}
	defer log.Close()
	const group = 256
	groups := len(in.recs) / group
	ns, err := nsPer(groups*group, func() error {
		for g := 0; g < groups; g++ {
			if err := log.AppendBatch(in.recs[g*group : (g+1)*group]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.add("wal.append_batch_ns_per_rec", "ns", ns)

	// Group commit: two writers each make a fixed number of durable
	// appends. This is the only place the benchmark times fsync.
	const writers, perWriter = 2, 40
	before := log.Stats()
	lat := make([][]int64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				start := time.Now()
				if err := log.AppendGroup(in.recs[(w*perWriter+i)%len(in.recs)]); err != nil {
					errs[w] = err
					return
				}
				lat[w] = append(lat[w], int64(time.Since(start)))
			}
		}(w)
	}
	wg.Wait()
	var all []int64
	for w := range lat {
		if errs[w] != nil {
			return errs[w]
		}
		all = append(all, lat[w]...)
	}
	sortInt64(all)
	after := log.Stats()
	ms.addN("wal.group_commit_us_p50", "us", usOf(percentile(all, 0.5)), len(all), "")
	ms.add("wal.syncs_per_append", "ratio", ratio(float64(after.Syncs-before.Syncs), float64(after.Appends-before.Appends)))
	ms.add("wal.group_size_mean", "count", ratio(float64(after.Grouped-before.Grouped), float64(after.Groups-before.Groups)))
	return nil
}

func admissionLayer(ms *metricSet) error {
	ctl := admission.New(admission.Config{Tenants: map[string]admission.TenantConfig{
		"metered": {OpsPerSec: 1e12},
	}})
	const n = 100_000
	ns, err := nsPer(2*n, func() error {
		for i := 0; i < n; i++ {
			for _, tenant := range [2]string{"", "metered"} {
				release, err := ctl.Admit(tenant, admission.OpRead, 1)
				if err != nil {
					return err
				}
				release()
			}
		}
		return nil
	})
	ms.add("admission.admit_ns_per_op", "ns", ns)
	return err
}

// rpcLayer times the wire alone: both transports against a handler
// that echoes its request.
func rpcLayer(ms *metricSet) error {
	echo := rpc.HandlerFunc(func(req rpc.Request) rpc.Response {
		return rpc.Response{Found: true, Value: req.Value}
	})
	srv := rpc.NewServer(echo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	tcp := rpc.NewTCPTransport()
	defer tcp.Close()

	call := func(tr rpc.Transport, addr string, req rpc.Request, n int) ([]int64, error) {
		lat := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			resp, err := tr.Call(addr, req)
			if err != nil {
				return nil, err
			}
			lat = append(lat, int64(time.Since(start)))
			sink += len(resp.Value)
		}
		sortInt64(lat)
		return lat, nil
	}
	small := rpc.Request{Method: rpc.MethodGet, Namespace: "tbl.users", Key: make([]byte, 16), Value: make([]byte, 200)}
	if _, err := call(tcp, addr, small, 200); err != nil { // dial, warm the pools
		return err
	}
	const smallCalls, bigCalls, localCalls = 4000, 400, 200_000
	var lat []int64
	allocs, err := allocsDuring(func() error {
		var err error
		lat, err = call(tcp, addr, small, smallCalls)
		return err
	})
	if err != nil {
		return err
	}
	ms.addN("rpc.tcp_echo_us_p50", "us", usOf(percentile(lat, 0.5)), len(lat), "")
	ms.add("rpc.tcp_echo_allocs_per_call", "count", allocs/smallCalls)
	big := small
	big.Value = make([]byte, 64<<10) // one scan page
	if lat, err = call(tcp, addr, big, bigCalls); err != nil {
		return err
	}
	ms.addN("rpc.tcp_echo_64k_us_p50", "us", usOf(percentile(lat, 0.5)), len(lat), "")

	local := rpc.NewLocalTransport()
	local.Register("local://echo", echo)
	ns, err := nsPer(localCalls, func() error {
		for i := 0; i < localCalls; i++ {
			if _, err := local.Call("local://echo", small); err != nil {
				return err
			}
		}
		return nil
	})
	ms.add("rpc.local_echo_ns", "ns", ns)
	return err
}

// memStore is the view engine's Store over memtables: the in-memory
// copy of every namespace the view loop computes against.
type memStore struct {
	tables map[string]*memtable.Memtable
}

func (m *memStore) GetRow(namespace string, key []byte) (row.Row, bool, error) {
	t := m.tables[namespace]
	if t == nil {
		return nil, false, nil
	}
	rec, ok := t.Get(key)
	if !ok || rec.Tombstone {
		return nil, false, nil
	}
	r, err := row.Decode(rec.Value)
	return r, err == nil, err
}

func (m *memStore) ScanRows(namespace string, start, end []byte, limit int) ([]row.Row, error) {
	t := m.tables[namespace]
	if t == nil {
		return nil, nil
	}
	var out []row.Row
	var err error
	t.Scan(start, end, func(rec record.Record) bool {
		if rec.Tombstone {
			return true
		}
		var r row.Row
		if r, err = row.Decode(rec.Value); err != nil {
			return false
		}
		out = append(out, r)
		return len(out) < limit
	})
	return out, err
}

// viewLayer computes the index maintenance of the stream's writes
// against an in-memory copy of the loaded data, so the cost of
// working out the mutations is timed apart from applying them.
func viewLayer(ms *metricSet, s *stack, d *dataset, ops []op) error {
	schema, err := query.Parse(d.def.ddl())
	if err != nil {
		return err
	}
	analysis, err := analyzer.Analyze(schema, analyzer.Config{})
	if err != nil {
		return err
	}
	plans, err := planner.Compile(schema, analysis)
	if err != nil {
		return err
	}
	if len(plans.Indexes) == 0 {
		ms.add("view.mutations_per_write", "count", 0)
		ms.add("view.compute_ns_per_write", "ns", 0)
		return nil
	}
	store := &memStore{tables: make(map[string]*memtable.Memtable)}
	for i, e := range s.engines {
		for _, name := range e.Namespaces() {
			ns, err := e.Namespace(name)
			if err != nil {
				return err
			}
			t := store.tables[name]
			if t == nil {
				t = memtable.New(int64(i + 1))
				store.tables[name] = t
			}
			if err := ns.ScanLive(nil, nil, func(r record.Record) bool { t.Put(r.Clone()); return true }); err != nil {
				return err
			}
		}
	}
	engine := view.NewEngine(schema, plans.Indexes, store)
	type write struct {
		table    string
		old, new row.Row
	}
	var writes []write
	for i := range ops {
		o := &ops[i]
		var w write
		switch o.kind {
		case opAddFriend:
			w = write{table: "friendships", new: o.row}
		case opRemoveFriend:
			w = write{table: "friendships", old: o.row}
		case opSocialUser:
			key, err := usersKey(o.user)
			if err != nil {
				return err
			}
			old, _, err := store.GetRow(planner.TableNamespace("users"), key)
			if err != nil {
				return err
			}
			w = write{table: "users", old: old, new: o.row}
		default:
			continue
		}
		writes = append(writes, w)
	}
	var muts int
	ns, err := nsPer(len(writes), func() error {
		for _, w := range writes {
			m, err := engine.Mutations(w.table, w.old, w.new)
			if err != nil {
				return err
			}
			muts += len(m)
		}
		return nil
	})
	ms.addN("view.mutations_per_write", "count", ratio(float64(muts), float64(len(writes))), len(writes), "")
	ms.add("view.compute_ns_per_write", "ns", ns)
	return err
}
