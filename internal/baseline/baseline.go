// Package baseline implements the paper's comparison system (§V-A
// "Evaluation Setup"): PBFT with traditional client handling. Every node
// runs a client process that reads the bus and forwards each record to the
// primary as its own signed request — no payload filtering — so identical
// input read by n nodes is ordered up to n times. Requests not ordered
// within the client timeout are broadcast to all replicas and escalate to a
// view change, mirroring classic PBFT client behaviour.
package baseline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/mvb"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// Wire tag for the baseline client request channel (range 0x50–0x5f).
const typeClientRequest wire.Type = 0x50

func init() {
	wire.Register(typeClientRequest, func() wire.Message { return new(ClientRequest) })
}

// ClientRequest carries a baseline client's signed request to the primary
// (or, after a client timeout, to all replicas).
type ClientRequest struct {
	Req pbft.Request
}

// WireType implements wire.Message.
func (m *ClientRequest) WireType() wire.Type { return typeClientRequest }

// EncodeWire implements wire.Message.
func (m *ClientRequest) EncodeWire(e *wire.Encoder) {
	e.Bytes(m.Req.Payload)
	e.Uint32(uint32(m.Req.Origin))
	e.Bytes(m.Req.Sig)
}

// DecodeWire implements wire.Message.
func (m *ClientRequest) DecodeWire(d *wire.Decoder) {
	m.Req.Payload = d.BytesCopy()
	m.Req.Origin = crypto.NodeID(d.Uint32())
	m.Req.Sig = d.BytesCopy()
}

// Config parameterizes a baseline node.
type Config struct {
	ID       crypto.NodeID
	Replicas []crypto.NodeID
	// BlockSize is the requests-per-block/checkpoint count (10 in §V).
	BlockSize uint64
	// ClientTimeout is the client's wait before re-broadcasting and
	// suspecting (500 ms in Fig 8).
	ClientTimeout time.Duration
	// SuspectOnFirstTimeout makes the first client timeout suspect the
	// primary directly instead of re-broadcasting first — the paper's
	// Fig 8 baseline uses a single 500 ms view-change timeout.
	SuspectOnFirstTimeout bool
	// ViewTimeout is the PBFT view-change progress timeout.
	ViewTimeout time.Duration
	DataDir     string
}

func (c *Config) applyDefaults() {
	if c.BlockSize == 0 {
		c.BlockSize = pbft.DefaultCheckpointInterval
	}
	if c.ClientTimeout <= 0 {
		c.ClientTimeout = 500 * time.Millisecond
	}
	if c.ViewTimeout <= 0 {
		c.ViewTimeout = 500 * time.Millisecond
	}
}

// Node is one baseline replica+client pair.
type Node struct {
	cfg Config
	kp  *crypto.KeyPair
	reg *crypto.Registry
	clk clock.Clock

	mux     *transport.Mux
	runner  *pbft.Runner
	reqChan transport.Transport
	store   *blockchain.Store
	pool    *crypto.VerifyPool

	mu      sync.Mutex
	builder *blockchain.Builder
	primary crypto.NodeID
	// open tracks this client's in-flight requests by full digest.
	open map[crypto.Digest]*pendingReq
	// seen dedups retransmitted client requests by full digest, as PBFT
	// does on "complete requests including client ids" (§VI): proposed or
	// ordered requests are not proposed again.
	seen     map[crypto.Digest]bool
	seenFIFO []crypto.Digest

	latency  *metrics.Latency
	counters *metrics.Counters

	busWG   sync.WaitGroup
	stopped sync.Once
	closed  bool
}

type pendingReq struct {
	req       pbft.Request
	submitted time.Time
	timer     clock.Timer
	cancel    chan struct{}
	stopOnce  sync.Once
	broadcast bool // already escalated once
}

func (p *pendingReq) stop() {
	p.stopOnce.Do(func() { close(p.cancel) })
}

// New assembles a baseline node.
func New(cfg Config, kp *crypto.KeyPair, reg *crypto.Registry, tr transport.Transport, clk clock.Clock) (*Node, error) {
	cfg.applyDefaults()

	// Same crypto acceleration as a ZugChain node (verified-signature
	// cache, sign-time seeding): the baseline's client retransmissions are
	// exactly the traffic the cache absorbs, and keeping the stacks
	// symmetric keeps the experiment comparison about the protocols, not
	// about one side paying for repeat verifications.
	cc := &metrics.CryptoCounters{}
	vcache := crypto.NewVerifyCache(0, cc)
	reg = reg.Accelerated(vcache, true, cc)
	kp = kp.WithCache(vcache)

	store, err := blockchain.NewStore(cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("baseline: open store: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		kp:       kp,
		reg:      reg,
		clk:      clk,
		store:    store,
		open:     make(map[crypto.Digest]*pendingReq),
		seen:     make(map[crypto.Digest]bool),
		latency:  &metrics.Latency{},
		counters: &metrics.Counters{},
	}
	n.builder = blockchain.NewBuilder(store.Head(), 1<<30)

	n.mux = transport.NewMux(tr)
	pbftChan := n.mux.Channel(0x10, 0x2f)
	n.reqChan = n.mux.Channel(0x50, 0x5f)
	n.reqChan.SetHandler(n.onClientRequest)

	engine, err := pbft.NewEngine(pbft.Config{
		ID:                 cfg.ID,
		Replicas:           cfg.Replicas,
		CheckpointInterval: cfg.BlockSize,
	}, kp, reg)
	if err != nil {
		return nil, err
	}
	// One verification pipeline shared by the PBFT runner and the client
	// request path, mirroring the ZugChain node: inbound Ed25519 checks run
	// on pool workers, not on the transport delivery goroutine.
	n.pool = crypto.NewVerifyPool(0)
	n.runner = pbft.NewRunner(engine, pbftChan, clk, (*baselineApp)(n), pbft.RunnerConfig{
		BaseViewTimeout: cfg.ViewTimeout,
		VerifyPool:      n.pool,
	})
	return n, nil
}

// Start launches the consensus runner.
func (n *Node) Start() { n.runner.Start() }

// Stop shuts down the node.
func (n *Node) Stop() {
	n.stopped.Do(func() {
		n.mu.Lock()
		n.closed = true
		for _, p := range n.open {
			p.stop()
		}
		n.open = make(map[crypto.Digest]*pendingReq)
		n.mu.Unlock()
		n.runner.Stop()
		n.pool.Close()
		n.busWG.Wait()
	})
}

// Store exposes the node's blockchain.
func (n *Node) Store() *blockchain.Store { return n.store }

// Runner exposes the PBFT runner.
func (n *Node) Runner() *pbft.Runner { return n.runner }

// Latency exposes request receive-to-decide latency of this node's client.
func (n *Node) Latency() *metrics.Latency { return n.latency }

// Counters exposes client event counters.
func (n *Node) Counters() *metrics.Counters { return n.counters }

// HandleFrame is the baseline client path: every frame becomes this
// client's own signed request, forwarded to the primary without any
// payload-level deduplication.
func (n *Node) HandleFrame(frame mvb.Frame) {
	rec, _ := mvb.ParseFrame(frame)
	if len(rec.Signals) == 0 {
		return
	}
	out := signal.Record{Cycle: rec.Cycle, Signals: rec.Signals}
	n.Submit(out.Marshal())
}

// Submit sends one payload as a client request.
func (n *Node) Submit(payload []byte) {
	req := pbft.Request{Payload: payload}
	pbft.SignRequest(&req, n.kp)
	n.counters.AddSignature()

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	digest := req.Digest()
	p := &pendingReq{req: req, cancel: make(chan struct{}), submitted: n.clk.Now()}
	n.open[digest] = p
	primary := n.primary
	n.mu.Unlock()

	n.sendRequest(primary, req)
	n.armTimer(digest, p)
}

func (n *Node) armTimer(digest crypto.Digest, p *pendingReq) {
	p.timer = n.clk.NewTimer(n.cfg.ClientTimeout)
	go func() {
		select {
		case <-p.timer.C():
			select {
			case <-p.cancel:
				return
			default:
			}
			n.onClientTimeout(digest)
		case <-p.cancel:
			p.timer.Stop()
		}
	}()
}

// onClientTimeout escalates per classic PBFT: first re-broadcast the request
// to all replicas, then suspect the primary.
func (n *Node) onClientTimeout(digest crypto.Digest) {
	n.mu.Lock()
	p, ok := n.open[digest]
	if !ok || n.closed {
		n.mu.Unlock()
		return
	}
	if !p.broadcast && !n.cfg.SuspectOnFirstTimeout {
		p.broadcast = true
		n.mu.Unlock()
		n.broadcastRequest(p.req)
		n.mu.Lock()
		if _, still := n.open[digest]; still && !n.closed {
			n.armTimer(digest, p)
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	// Second expiry: the primary is censoring.
	n.runner.Suspect(n.currentPrimary())
}

// markSeenLocked records a full request digest in the dedup window.
func (n *Node) markSeenLocked(d crypto.Digest) {
	if n.seen[d] {
		return
	}
	n.seen[d] = true
	n.seenFIFO = append(n.seenFIFO, d)
	const window = 4096
	for len(n.seenFIFO) > window {
		delete(n.seen, n.seenFIFO[0])
		n.seenFIFO = n.seenFIFO[1:]
	}
}

// propose submits to the local engine unless the full request was already
// proposed or ordered here.
func (n *Node) propose(req pbft.Request) {
	d := req.Digest()
	n.mu.Lock()
	if n.seen[d] {
		n.mu.Unlock()
		return
	}
	n.markSeenLocked(d)
	n.mu.Unlock()
	n.runner.Propose(req)
}

func (n *Node) currentPrimary() crypto.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

func (n *Node) sendRequest(to crypto.NodeID, req pbft.Request) {
	data := wire.Marshal(&ClientRequest{Req: req})
	n.counters.AddSent(len(data))
	if to == n.cfg.ID {
		// Client co-located with the primary: hand over directly.
		n.propose(req)
		return
	}
	_ = n.reqChan.Send(to, data)
}

func (n *Node) broadcastRequest(req pbft.Request) {
	data := wire.Marshal(&ClientRequest{Req: req})
	n.counters.AddSent(len(data))
	_ = n.reqChan.Broadcast(data)
	// The local replica also counts as a broadcast recipient.
	n.mu.Lock()
	isPrimary := n.primary == n.cfg.ID
	n.mu.Unlock()
	if isPrimary {
		n.propose(req)
	}
}

// onClientRequest is the replica side: requests from clients are proposed
// if we are the primary, otherwise relayed to it.
func (n *Node) onClientRequest(from crypto.NodeID, data []byte) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	cr, ok := msg.(*ClientRequest)
	if !ok {
		return
	}
	// The signature check runs on the verify pool (cache-aware via the
	// accelerated registry: a retransmitted request costs a map lookup, not
	// a scalar multiplication); the continuation re-reads node state because
	// the primary may have changed while the check was queued.
	n.pool.Submit(func() {
		if pbft.VerifyRequest(&cr.Req, n.reg) != nil {
			return
		}
		n.mu.Lock()
		primary := n.primary
		n.mu.Unlock()
		if primary == n.cfg.ID {
			n.propose(cr.Req)
			return
		}
		if from == cr.Req.Origin {
			// Broadcast from the client itself: relay toward the primary so
			// a censored client cannot be starved.
			_ = n.reqChan.Send(primary, data)
		}
	})
}

// RunBus consumes frames from reader until ctx is cancelled.
func (n *Node) RunBus(ctx context.Context, reader *mvb.Reader) {
	n.busWG.Add(1)
	go func() {
		defer n.busWG.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case frame := <-reader.C():
				n.HandleFrame(frame)
			}
		}
	}()
}

// baselineApp adapts the node to pbft.Application.
type baselineApp Node

// Deliver implements pbft.Application: every decided request is logged —
// duplicates included, which is precisely the baseline's overhead.
func (a *baselineApp) Deliver(seq uint64, req pbft.Request) {
	n := (*Node)(a)
	n.counters.AddRequest()

	digest := req.Digest()
	n.mu.Lock()
	n.markSeenLocked(digest)
	if p, ok := n.open[digest]; ok {
		p.stop()
		delete(n.open, digest)
		n.latency.Record(n.clk.Now().Sub(p.submitted))
	}
	n.builder.Add(blockchain.Entry{
		Seq:     seq,
		Origin:  req.Origin,
		Payload: req.Payload,
		Sig:     req.Sig,
	})
	n.mu.Unlock()
}

// CheckpointDigest implements pbft.Application.
func (a *baselineApp) CheckpointDigest(seq uint64) crypto.Digest {
	n := (*Node)(a)
	n.mu.Lock()
	block := n.builder.SealCheckpoint(seq)
	n.mu.Unlock()
	if err := n.store.Append(block); err != nil {
		return crypto.Hash([]byte(fmt.Sprintf("corrupt-%d", seq)))
	}
	return block.Hash()
}

// StableCheckpoint implements pbft.Application.
func (a *baselineApp) StableCheckpoint(proof pbft.CheckpointProof) {}

// NewPrimary implements pbft.Application.
func (a *baselineApp) NewPrimary(view uint64, primary crypto.NodeID) {
	n := (*Node)(a)
	n.mu.Lock()
	n.primary = primary
	open := make([]pbft.Request, 0, len(n.open))
	for _, p := range n.open {
		open = append(open, p.req)
	}
	isPrimary := primary == n.cfg.ID
	n.mu.Unlock()
	// Clients retransmit their open requests to the new primary.
	for _, req := range open {
		if isPrimary {
			n.propose(req)
		} else {
			_ = n.reqChan.Send(primary, wire.Marshal(&ClientRequest{Req: req}))
		}
	}
}

// StateTransferNeeded implements pbft.Application. The baseline has no
// export subsystem; a lagging replica stays lagged (the paper's baseline
// offers no state transfer either).
func (a *baselineApp) StateTransferNeeded(seq uint64, digest crypto.Digest) {}
