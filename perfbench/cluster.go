package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/node"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
)

// The paper's evaluation settings (§V), shared by every workload.
const (
	replicas    = 4 // n = 3f+1 with f = 1
	quorum      = 3 // 2f+1
	blockSize   = 10
	softTimeout = 250 * time.Millisecond
	hardTimeout = 250 * time.Millisecond
	viewTimeout = 500 * time.Millisecond
)

// clusterConfig selects how a workload deploys the four replicas.
type clusterConfig struct {
	tcp        bool   // TCP loopback (as cmd/zugchain deploys) vs the in-process network
	dataRoot   string // per-replica data dirs (store + WAL) below it; "" keeps both in memory
	maxBatch   int
	batchDelay time.Duration
	withDC     bool // authorize one data center (export)
}

// cluster is four replicas built through node.New on the benchmark's
// transport and clock wrappers.
type cluster struct {
	cfg   clusterConfig
	ids   []crypto.NodeID
	dcID  crypto.NodeID
	kps   map[crypto.NodeID]*crypto.KeyPair
	reg   *crypto.Registry
	net   *transport.Network
	tcps  []*transport.TCP
	addrs map[crypto.NodeID]string // TCP listen addresses
	meter *netMeter
	clk   *countingClock
	spans *spanLog

	mu    sync.Mutex
	nodes []*node.Node // nil while a replica is down
}

// seededKeys derives the replica (and data-center) keys from the seed, so a
// seed fixes every signature the run produces.
func seededKeys(seed int64, withDC bool) ([]crypto.NodeID, crypto.NodeID, map[crypto.NodeID]*crypto.KeyPair, *crypto.Registry, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]crypto.NodeID, replicas)
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	all := make([]crypto.NodeID, 0, replicas+1)
	for i := range ids {
		ids[i] = crypto.NodeID(i)
		all = append(all, ids[i])
	}
	dcID := crypto.DataCenterIDBase
	if withDC {
		all = append(all, dcID)
	}
	for _, id := range all {
		kp, err := crypto.GenerateKeyPair(id, rng)
		if err != nil {
			return nil, 0, nil, nil, fmt.Errorf("generate key %v: %w", id, err)
		}
		kps[id] = kp
		pairs = append(pairs, kp)
	}
	return ids, dcID, kps, crypto.NewRegistry(pairs...), nil
}

func newCluster(cfg clusterConfig, seed int64, spans *spanLog) (*cluster, error) {
	ids, dcID, kps, reg, err := seededKeys(seed, cfg.withDC)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		cfg: cfg, ids: ids, dcID: dcID, kps: kps, reg: reg,
		meter: &netMeter{},
		clk:   &countingClock{spans: spans},
		spans: spans,
		nodes: make([]*node.Node, replicas),
	}
	if cfg.tcp {
		c.addrs = make(map[crypto.NodeID]string)
		for _, id := range ids {
			tr, err := transport.NewTCP(id, "127.0.0.1:0", nil)
			if err != nil {
				c.stop()
				return nil, fmt.Errorf("listen: %w", err)
			}
			c.tcps = append(c.tcps, tr)
			c.addrs[id] = tr.Addr()
		}
		for _, tr := range c.tcps {
			tr.SetPeers(c.addrs)
		}
	} else {
		c.net = transport.NewNetwork(transport.WithSeed(seed))
	}
	for i := range ids {
		if _, err := c.start(i); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) dataDir(i int) string {
	if c.cfg.dataRoot == "" {
		return ""
	}
	return filepath.Join(c.cfg.dataRoot, fmt.Sprintf("replica-%d", i))
}

func (c *cluster) wrap(inner transport.Transport) *meteredTransport {
	return &meteredTransport{inner: inner, peers: replicas - 1, meter: c.meter, spans: c.spans}
}

// start builds and starts replica i (a restart reopens its data dir). It
// returns how long node.New took: on a restart that is the WAL replay and
// store reload.
func (c *cluster) start(i int) (time.Duration, error) {
	id := c.ids[i]
	var inner transport.Transport
	if c.cfg.tcp {
		inner = c.tcps[i]
	} else {
		inner = c.net.Endpoint(id)
	}
	cfg := node.Config{
		ID:            id,
		Replicas:      c.ids,
		BlockSize:     blockSize,
		DataDir:       c.dataDir(i),
		SoftTimeout:   softTimeout,
		HardTimeout:   hardTimeout,
		ViewTimeout:   viewTimeout,
		MaxBatch:      c.cfg.maxBatch,
		MaxBatchDelay: c.cfg.batchDelay,
	}
	if c.cfg.withDC {
		cfg.DataCenters = []crypto.NodeID{c.dcID}
		cfg.DeleteQuorum = 1
	}
	sp := c.spans.begin("node.New", 0)
	t0 := time.Now()
	n, err := node.New(cfg, c.kps[id], c.reg, c.wrap(inner), c.clk)
	newDur := time.Since(t0)
	c.spans.end(sp)
	if err != nil {
		return 0, fmt.Errorf("start replica %d: %w", i, err)
	}
	sp = c.spans.begin("node.Start", 0)
	n.Start()
	c.spans.end(sp)
	c.mu.Lock()
	c.nodes[i] = n
	c.mu.Unlock()
	return newDur, nil
}

// kill stops replica i and releases its network attachment; only its data
// dir survives, as after a process crash.
func (c *cluster) kill(i int) {
	c.mu.Lock()
	n := c.nodes[i]
	c.nodes[i] = nil
	c.mu.Unlock()
	if n == nil {
		return
	}
	sp := c.spans.begin("node.Stop", 0)
	n.Stop()
	c.spans.end(sp)
	if c.net != nil {
		c.net.Remove(c.ids[i])
	}
}

// live returns the current replica slots (nil = down).
func (c *cluster) live() []*node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node.Node(nil), c.nodes...)
}

// primary returns the index of the current primary as the most advanced
// live replica sees it.
func (c *cluster) primary() int { return int(c.maxView() % replicas) }

// stores returns each replica's store, nil while it is down.
func (c *cluster) stores() []*blockchain.Store {
	out := make([]*blockchain.Store, replicas)
	for i, n := range c.live() {
		if n != nil {
			out[i] = n.Store()
		}
	}
	return out
}

// maxView is the highest view any live replica is in.
func (c *cluster) maxView() uint64 {
	var view uint64
	for _, n := range c.live() {
		if n == nil {
			continue
		}
		n.Runner().Inspect(func(e *pbft.Engine) {
			if v, _, _ := e.ViewState(); v > view {
				view = v
			}
		})
	}
	return view
}

func (c *cluster) stop() {
	for i := range c.nodes {
		c.kill(i)
	}
	for _, tr := range c.tcps {
		_ = tr.Close()
	}
	if c.net != nil {
		_ = c.net.Close()
	}
}
