// Command scads-server runs one SCADS storage node: the ordered,
// versioned key-value engine (memtable + WAL + SSTables) served over
// the binary TCP protocol. A coordinator (the scads library, the
// load generator, or another tool) routes table, index, and
// replication traffic to it.
//
// Usage:
//
//	scads-server -addr :7070 -data /var/lib/scads -id node-1
//
// With -data "" the node runs fully in memory (useful for demos).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof debug endpoint
	"os"
	"os/signal"
	"syscall"
	"time"

	"scads/internal/cluster"
	"scads/internal/rpc"
	"scads/internal/storage"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		dataDir    = flag.String("data", "", "data directory (empty = in-memory)")
		nodeID     = flag.String("id", "", "node ID (default: derived from address)")
		numID      = flag.Uint("numeric-id", 1, "numeric node ID mixed into record versions (16 bits)")
		memLimit   = flag.Int64("memtable-bytes", 4<<20, "memtable flush threshold")
		cacheBytes = flag.Int64("cache-bytes", 0, "read-cache capacity (0 = default 32 MiB, negative disables)")
		blockCache = flag.Int64("block-cache-bytes", 32<<20, "SSTable block cache capacity (0 disables)")
		compRate   = flag.Int64("compaction-rate", 0, "background compaction throttle in input bytes/sec (0 = unlimited)")
		syncWrites = flag.Bool("sync-writes", false, "fsync (group-committed) before acknowledging each write")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("scads-server: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("scads-server: pprof: %v", err)
			}
		}()
	}

	id := *nodeID
	if id == "" {
		id = "node@" + *addr
	}
	engine, err := storage.Open(storage.Options{
		Dir:                 *dataDir,
		NodeID:              uint16(*numID),
		MemtableBytes:       *memLimit,
		CacheBytes:          *cacheBytes,
		BlockCacheBytes:     *blockCache,
		CompactionRateBytes: *compRate,
		SyncWrites:          *syncWrites,
	})
	if err != nil {
		log.Fatalf("scads-server: open storage: %v", err)
	}
	node := cluster.NewNode(id, engine)
	server := rpc.NewServer(node)
	bound, err := server.Listen(*addr)
	if err != nil {
		log.Fatalf("scads-server: %v", err)
	}
	log.Printf("scads-server %s serving on %s (data=%q)", id, bound, *dataDir)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s := engine.Stats()
			log.Printf("stats: namespaces=%d records=%d memtable=%dB tables=%d reads=%d writes=%d",
				s.Namespaces, s.RecordCount, s.MemtableBytes, s.TableCount,
				node.ReadCount(), node.WriteCount())
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "scads-server: %v, shutting down\n", sig)
			server.Close()
			if err := engine.Close(); err != nil {
				log.Fatalf("scads-server: close: %v", err)
			}
			return
		}
	}
}
