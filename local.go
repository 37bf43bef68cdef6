package scads

import (
	"fmt"
	"sync"

	"scads/internal/cluster"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// defaultNodeBlockCacheBytes is the BlockCacheBytes a disk-backed
// LocalCluster node gets unless Config.NodeStorage says otherwise
// (negative = none beyond CacheBytes' share). In-memory nodes have no
// SSTables and never build a cache.
const defaultNodeBlockCacheBytes = 16 << 20

// LocalCluster bundles a Cluster with in-process storage nodes — the
// form every test, example and simulation uses. Nodes run the same
// cluster.Node code a TCP deployment serves; only the transport is
// in-memory.
type LocalCluster struct {
	*Cluster
	Transport *rpc.LocalTransport

	mu     sync.Mutex
	nodes  map[string]*cluster.Node
	nextID int
}

// NewLocalCluster creates n in-memory storage nodes, registers them as
// serving, and opens a Cluster over them. The Config's Transport and
// Directory fields are filled in.
func NewLocalCluster(n int, cfg Config) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("scads: local cluster needs at least one node")
	}
	cfg = cfg.withDefaults()
	lt := rpc.NewLocalTransport()
	dir := cluster.NewDirectory(cfg.Clock)
	cfg.Transport = lt
	cfg.Directory = dir

	c, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{
		Cluster:   c,
		Transport: lt,
		nodes:     make(map[string]*cluster.Node),
	}
	for i := 0; i < n; i++ {
		if _, err := lc.AddStorageNode(); err != nil {
			return nil, err
		}
	}
	return lc, nil
}

// AddStorageNode boots one more in-memory node, registers it, and
// marks it serving. Returns the node ID.
func (lc *LocalCluster) AddStorageNode() (string, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.nextID++
	id := fmt.Sprintf("node-%03d", lc.nextID)
	sopts := lc.cfg.NodeStorage
	sopts.Clock = lc.clk
	sopts.NodeID = uint16(lc.nextID)
	if sopts.Dir != "" {
		// Per-node subdirectory so nodes sharing a configured data
		// root never collide.
		sopts.Dir = fmt.Sprintf("%s/%s", sopts.Dir, id)
		if sopts.BlockCacheBytes == 0 {
			// Disk-backed nodes add to the cache's default share;
			// pass a negative value to add nothing.
			sopts.BlockCacheBytes = defaultNodeBlockCacheBytes
		}
	}
	engine, err := storage.Open(sopts)
	if err != nil {
		return "", err
	}
	node := cluster.NewNode(id, engine)
	lc.nodes[id] = node
	addr := "local://" + id
	lc.Transport.Register(addr, node)
	lc.dir.Join(id, addr)
	lc.dir.MarkUp(id)
	return id, nil
}

// Node returns the in-process node by ID (tests reach into storage
// state through it).
func (lc *LocalCluster) Node(id string) (*cluster.Node, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	n, ok := lc.nodes[id]
	return n, ok
}

// NodeIDs lists the node IDs in registration order-independent sorted
// form via the directory.
func (lc *LocalCluster) NodeIDs() []string {
	var out []string
	for _, m := range lc.dir.Members() {
		out = append(out, m.ID)
	}
	return out
}

// CrashNode simulates a node failure: unreachable and marked down.
func (lc *LocalCluster) CrashNode(id string) {
	lc.Transport.SetDown("local://"+id, true)
	lc.dir.MarkDown(id)
}

// RecoverNode brings a crashed node back.
func (lc *LocalCluster) RecoverNode(id string) {
	lc.Transport.SetDown("local://"+id, false)
	lc.dir.MarkUp(id)
}

// PartitionReplica severs only the replication link to the node: it
// keeps serving reads but stops receiving updates, so its data grows
// stale — the replica-in-the-disconnected-datacenter of §3.3.1. Writes
// destined for it park in the deadline queue and deliver after
// HealReplica.
func (lc *LocalCluster) PartitionReplica(id string) {
	lc.Transport.SetApplyDown("local://"+id, true)
}

// HealReplica restores the replication link severed by
// PartitionReplica.
func (lc *LocalCluster) HealReplica(id string) {
	lc.Transport.SetApplyDown("local://"+id, false)
}

// MoveRange migrates the partition containing key in the given
// namespace to a new replica group, online and lossless: the
// migration manager snapshots the range from the current holders,
// catches the new replicas up through sequence-watermarked deltas,
// briefly write-fences the donor primary for the final drain, flips
// the partition map, and tears the range down on nodes that lost it.
// Writes keep flowing throughout — a write arriving during the fence
// pause bounces, is re-routed, and lands on the new primary. This is
// the data-movement primitive behind Rebalance, SpreadNamespace,
// DecommissionNode and the elastic actuator.
func (c *Cluster) MoveRange(namespace string, key []byte, newReplicas []string) error {
	m, ok := c.router.Map(namespace)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", namespace)
	}
	return c.migrations.MoveRange(m, namespace, key, newReplicas)
}

// ReplicateRangeTo adds targets as additional replicas of the range
// containing key (used when raising the replication factor to meet a
// durability SLA — Figure 4 row 5).
func (c *Cluster) ReplicateRangeTo(namespace string, key []byte, targets []string) error {
	m, ok := c.router.Map(namespace)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", namespace)
	}
	rng := m.Lookup(key)
	newReplicas := append(append([]string(nil), rng.Replicas...), targets...)
	return c.MoveRange(namespace, key, newReplicas)
}
