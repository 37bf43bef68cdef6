package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scads"
	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/planner"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// The deployment under test, identical for every workload: two
// disk-backed nodes behind real TCP servers on loopback, one
// multiplexed TCP transport, one coordinator with batching and
// admission at their defaults.
const (
	numNodes      = 2
	memtableBytes = 1 << 20 // small, so flush and compaction cycle several times per run
	// Cache sizes are fixed against the data sizes in workloads.go:
	// point_read_hot is half the aggregate record cache,
	// point_read_cold four times both caches together.
	cacheBytes      = 2 << 20
	blockCacheBytes = 2 << 20 // explicit: the engine's zero value is "off"
	syncWrites      = false   // the paper's ack-on-replication policy
)

// shims are the two interface seams a traced run interposes on; both
// nil for an untraced run.
type shims struct {
	transport func(rpc.Transport) rpc.Transport
	handler   func(node int, h rpc.Handler) rpc.Handler
}

// stack is one booted deployment.
type stack struct {
	dataDir string
	rf      int
	engines [numNodes]*storage.Engine
	nodes   [numNodes]*cluster.Node
	ids     [numNodes]string
	addrs   [numNodes]string
	servers [numNodes]*rpc.Server
	tcp     *rpc.TCPTransport
	// transport is what the coordinator was opened over: tcp, or the
	// tracing shim around it.
	transport rpc.Transport
	cluster   *scads.Cluster
}

func engineOptions(dataDir string, i int) storage.Options {
	return storage.Options{
		Dir:             filepath.Join(dataDir, fmt.Sprintf("node-%d", i+1)),
		MemtableBytes:   memtableBytes,
		CacheBytes:      cacheBytes,
		BlockCacheBytes: blockCacheBytes,
		SyncWrites:      syncWrites,
		NodeID:          uint16(i + 1),
	}
}

// boot starts the deployment over dataDir (fresh or holding an earlier
// run's engines) and installs the schema. Tables named in split are
// split at their middle key and spread, so both nodes serve every
// workload.
func boot(dataDir string, rf int, ddl string, split map[string]string, sh shims) (*stack, error) {
	s := &stack{dataDir: dataDir, rf: rf}
	clk := clock.NewReal()
	dir := cluster.NewDirectory(clk)
	for i := 0; i < numNodes; i++ {
		engine, err := storage.Open(engineOptions(dataDir, i))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("open engine %d: %w", i+1, err)
		}
		s.engines[i] = engine
		s.ids[i] = fmt.Sprintf("node-%d", i+1)
		s.nodes[i] = cluster.NewNode(s.ids[i], engine)
		var h rpc.Handler = s.nodes[i]
		if sh.handler != nil {
			h = sh.handler(i, h)
		}
		s.servers[i] = rpc.NewServer(h)
		addr, err := s.servers[i].Listen("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("listen node %d: %w", i+1, err)
		}
		s.addrs[i] = addr
		dir.Join(s.ids[i], addr)
		dir.MarkUp(s.ids[i])
	}
	s.tcp = rpc.NewTCPTransport()
	s.transport = s.tcp
	if sh.transport != nil {
		s.transport = sh.transport(s.tcp)
	}
	c, err := scads.Open(scads.Config{
		Clock:             clk,
		Transport:         s.transport,
		Directory:         dir,
		ReplicationFactor: rf,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.cluster = c
	if err := c.DefineSchema(ddl); err != nil {
		s.close()
		return nil, err
	}
	for table, at := range split {
		if err := c.SplitTable(table, at); err != nil {
			s.close()
			return nil, err
		}
		if err := c.SpreadNamespace(planner.TableNamespace(table)); err != nil {
			s.close()
			return nil, err
		}
	}
	c.StartBackground(2)
	return s, nil
}

// settle drains coordinator queues, flushes every memtable and waits
// until no background compaction is running, so the timed phase starts
// from tables on disk and an idle engine.
func (s *stack) settle() error {
	if err := s.quiesce(); err != nil {
		return err
	}
	for _, e := range s.engines {
		for _, name := range e.Namespaces() {
			ns, err := e.Namespace(name)
			if err != nil {
				return err
			}
			if err := ns.Flush(); err != nil {
				return fmt.Errorf("flush %s: %w", name, err)
			}
			// WaitCompaction covers merges in flight at call time; a
			// finished merge may start the next, so wait until the
			// table stack stops changing.
			for last := -1; ; {
				ns.WaitCompaction()
				if n := ns.TableCount(); n == last {
					break
				} else {
					last = n
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	return nil
}

// quiesce waits until index maintenance and replication are empty.
func (s *stack) quiesce() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := s.cluster.FlushAll(); err != nil {
			return err
		}
		st := s.cluster.Stats()
		if st.Maintenance == 0 && st.Replication.Pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: %d maintenance tasks and %d replication updates still pending",
				st.Maintenance, st.Replication.Pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops everything boot started, in dependency order, and waits
// for it; a second call does nothing. The data directory stays; the
// caller removes it.
func (s *stack) close() {
	if s.cluster != nil {
		_ = s.cluster.Close() // always nil
		s.cluster = nil
	}
	if s.tcp != nil {
		_ = s.tcp.Close() // connections only
		s.tcp = nil
	}
	for i := range s.servers {
		if s.servers[i] != nil {
			_ = s.servers[i].Close() // listener only
			s.servers[i] = nil
		}
		if s.engines[i] != nil {
			if err := s.engines[i].Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: close engine %d: %v\n", i+1, err)
			}
			s.engines[i] = nil
		}
	}
}
