package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
)

// Export catch-up settings: each round the stable checkpoint advances by
// exportBlocks blocks of blockSize compact JRU records (Table II's ~100 B
// filtered records), and one data center reads, verifies, archives to disk
// and deletes them.
const (
	exportBlocks  = 25
	exportEntry   = 100
	exportInitial = 4  // rounds' worth of blocks the set-up writes
	exportRefill  = 40 // rounds' worth of blocks appended per refill
	exportTimeout = 10 * time.Second
)

// chainGen extends the synthesized chain the replicas hold. Records carry
// their sequence number as their id (the record's cycle).
type chainGen struct {
	bd     *blockchain.Builder
	rng    *rand.Rand
	seq    uint64
	hashes []crypto.Digest // hashes[i] is block i's hash
}

func newChainGen(seed int64) *chainGen {
	g := blockchain.Genesis()
	return &chainGen{bd: blockchain.NewBuilder(g, blockSize), rng: rand.New(rand.NewSource(seed)), hashes: []crypto.Digest{g.Hash()}}
}

func (g *chainGen) next(count int) []*blockchain.Block {
	out := make([]*blockchain.Block, 0, count)
	for len(out) < count {
		g.seq++
		opaque := make([]byte, exportEntry)
		g.rng.Read(opaque)
		rec := signal.Record{Cycle: g.seq, Signals: []signal.Signal{{
			Port: signal.PortBulk, Kind: signal.KindBulkData, Cycle: g.seq, Opaque: opaque,
		}}}
		if b := g.bd.Add(blockchain.Entry{Seq: g.seq, Origin: crypto.NodeID(g.seq % replicas), Payload: rec.Marshal()}); b != nil {
			out = append(out, b)
			g.hashes = append(g.hashes, b.Hash())
		}
	}
	return out
}

func (g *chainGen) head() uint64 { return uint64(len(g.hashes) - 1) }

type exportEnv struct {
	c       *cluster
	gen     *chainGen
	dc      *export.DataCenter
	archive *blockchain.Store
	dcMeter *netMeter
	root    string
}

func (e *exportEnv) teardown() {
	e.c.stop()
	_ = e.archive.Close()
	_ = os.RemoveAll(e.root)
}

// refill appends rounds' worth of new blocks to every replica's on-disk
// store, in parallel. It is the benchmark's own work and runs outside the
// measured rounds.
func (e *exportEnv) refill(rounds int) error {
	blocks := e.gen.next(rounds * exportBlocks)
	var wg sync.WaitGroup
	errs := make([]error, replicas)
	for i, n := range e.c.live() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = n.Store().AppendBatch(blocks)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("refill replica %d: %w", i, err)
		}
	}
	return nil
}

// proof is the 2f+1-signed stable checkpoint for block idx.
func (e *exportEnv) proof(idx uint64) pbft.CheckpointProof {
	p := pbft.CheckpointProof{Seq: idx * blockSize, StateDigest: e.gen.hashes[idx]}
	for _, id := range e.c.ids[:quorum] {
		p.Checkpoints = append(p.Checkpoints, pbft.NewSignedCheckpoint(p.Seq, p.StateDigest, e.c.kps[id]))
	}
	return p
}

type exportWorkload struct{}

func (exportWorkload) setup(o *runOpts) (*exportEnv, error) {
	root, err := os.MkdirTemp(o.work, "export-")
	if err != nil {
		return nil, err
	}
	c, err := newCluster(clusterConfig{dataRoot: root, withDC: true}, o.seed, o.spans)
	if err != nil {
		_ = os.RemoveAll(root)
		return nil, err
	}
	archive, err := blockchain.NewStore(filepath.Join(root, "datacenter"))
	if err != nil {
		c.stop()
		_ = os.RemoveAll(root)
		return nil, err
	}
	dcMeter := &netMeter{}
	dcTr := &meteredTransport{inner: c.net.Endpoint(c.dcID), peers: replicas, meter: dcMeter, spans: o.spans}
	env := &exportEnv{c: c, gen: newChainGen(o.seed), dc: newDataCenter(c, archive, dcTr, o.seed), archive: archive, dcMeter: dcMeter, root: root}
	if err := env.refill(exportInitial); err != nil {
		env.teardown()
		return nil, err
	}
	return env, nil
}

// newDataCenter builds the cluster's data center on tr.
func newDataCenter(c *cluster, archive *blockchain.Store, tr *meteredTransport, seed int64) *export.DataCenter {
	return export.NewDataCenter(export.DataCenterConfig{
		ID:                 c.dcID,
		Replicas:           c.ids,
		CheckpointInterval: blockSize,
		Seed:               seed,
	}, c.kps[c.dcID], c.reg, archive, tr)
}

// roundStats is one measured export round.
type roundStats struct {
	latency, read, verify, deleteAck time.Duration
	blocks                           int
	cpu                              time.Duration
	traced                           bool
}

func (w exportWorkload) run(o *runOpts) (*result, error) {
	env, setupS, err := measureSetup(func() (*exportEnv, error) { return w.setup(o) }, (*exportEnv).teardown)
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	c, dc := env.c, env.dc
	res := newResult(o.workload)

	// The clock of the closed loop runs only inside rounds: refills pause it.
	var elapsed time.Duration
	var rounds []roundStats
	var netSum, replicaNet netCounts
	var allocSum, gcSum uint64
	inWindow := false
	failed := 0
	for elapsed < warmup+o.seconds {
		if !inWindow && elapsed >= warmup {
			inWindow = true
		}
		traced := o.trace && elapsed >= warmup+o.seconds/2
		o.spans.on.Store(traced)
		if env.archive.HeadIndex()+exportBlocks > env.gen.head() {
			o.spans.on.Store(false)
			if err := env.refill(exportRefill); err != nil {
				return nil, err
			}
			o.spans.on.Store(traced)
		}
		target := env.archive.HeadIndex() + exportBlocks
		proof := env.proof(target)

		u0 := readUsage(c.meter, nil)
		d0 := env.dcMeter.snapshot()
		t0 := time.Now()
		for _, n := range c.live() {
			sp := o.spans.begin("export.Checkpoint", 0)
			n.ExportServer().OnStableCheckpoint(proof)
			o.spans.end(sp)
		}
		r0 := time.Now()
		rd, del, err := exportRound(o, dc, target)
		r1 := time.Now()
		u1 := readUsage(c.meter, nil)
		d1 := env.dcMeter.snapshot()
		elapsed += r1.Sub(t0)
		if !inWindow {
			if err != nil {
				return nil, fmt.Errorf("warm-up export round: %w", err)
			}
			continue
		}
		if err != nil {
			failed++
			res.note("round to block %d failed: %v", target, err)
			continue
		}
		rounds = append(rounds, roundStats{
			latency: r1.Sub(r0), read: rd.ReadDuration, verify: rd.VerifyDuration, deleteAck: del,
			blocks: rd.NewBlocks, cpu: u1.cpu - u0.cpu, traced: traced,
		})
		rn := u1.net.sub(u0.net)
		for i := range netSum.msgs {
			netSum.msgs[i] += rn.msgs[i] + d1.sub(d0).msgs[i]
			netSum.bytes[i] += rn.bytes[i] + d1.sub(d0).bytes[i]
			replicaNet.bytes[i] += rn.bytes[i]
		}
		allocSum += u1.alloc - u0.alloc
		gcSum += u1.gcs - u0.gcs
	}
	o.spans.on.Store(false)
	window := elapsed - warmup

	res.attempted, res.failed = len(rounds)+failed, failed
	res.problems = append(res.problems, w.check(env)...)

	var lat, reads, verifies, deletes []float64
	var cpu time.Duration
	blocks := 0
	for _, r := range rounds {
		lat = append(lat, ms(r.latency))
		reads = append(reads, ms(r.read))
		verifies = append(verifies, ms(r.verify))
		deletes = append(deletes, ms(r.deleteAck))
		cpu += r.cpu
		blocks += r.blocks
		if r.blocks != exportBlocks {
			res.problem("a round exported %d blocks, want %d", r.blocks, exportBlocks)
		}
	}
	recs := blocks * blockSize
	res.setE2E("export_round", sortedCopy(lat), float64(recs)/window.Seconds(), cpu, netSum.totalBytes(), recs, setupS)
	res.report("export_blocks_per_s", float64(blocks)/window.Seconds(), "1/s")
	res.report("fail_frac", frac(failed, res.attempted), "ratio")
	res.note("rounds %d (%d failed), %d blocks of %d records, %.2f s of rounds", res.attempted, failed, blocks, blockSize, window.Seconds())

	if o.trace {
		l := res.layers
		exportLayers(l, reads, verifies, deletes, replicaNet.bytes[tagExport], blocks)
		for t := tagPBFT; t <= tagExport; t++ {
			l["transport.msgs_per_rec."+tagNames[t]] = perRec(float64(netSum.msgs[t]), recs)
			l["transport.bytes_per_rec."+tagNames[t]] = perRec(float64(netSum.bytes[t]), recs)
		}
		l["go.alloc_bytes_per_rec"] = perRec(float64(allocSum), recs)
		l["go.gc_per_krec"] = perRec(1000*float64(gcSum), recs)
		_, _, heap := goCounters()
		l["go.heap_peak_mb"] = float64(heap) / (1 << 20)

		var first, second halfStats
		var fl, sl []float64
		fr, sr := 0, 0
		for _, r := range rounds {
			if r.traced {
				second.cpuPerRec += ms(r.cpu)
				sl = append(sl, ms(r.latency))
				sr += r.blocks * blockSize
			} else {
				first.cpuPerRec += ms(r.cpu)
				fl = append(fl, ms(r.latency))
				fr += r.blocks * blockSize
			}
		}
		first.cpuPerRec, second.cpuPerRec = perRec(first.cpuPerRec, fr), perRec(second.cpuPerRec, sr)
		first.p50, second.p50 = median(fl), median(sl)
		reportOverhead(res, first, second)
		spanLayers(res, o.spans, sr)

		head := env.archive.HeadIndex()
		var sample [][]byte
		for idx := head; idx > 0 && len(sample) < 64; idx-- {
			b, err := env.archive.Get(idx)
			if err != nil {
				break
			}
			for _, e := range b.Entries {
				sample = append(sample, e.Payload)
			}
		}
		runProbes(o, res, c, sample, nil)
	}
	return res, nil
}

// exportRound runs one export round: a read with verification and
// archiving, then the signed delete until a quorum of replicas acknowledged
// pruning. want, when nonzero, is the block index the read must prove. It
// returns the read result and how long the delete took to be acknowledged.
func exportRound(o *runOpts, dc *export.DataCenter, want uint64) (*export.ReadResult, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), exportTimeout)
	defer cancel()
	sp := o.spans.begin("export.Read", 0)
	rd, err := dc.Read(ctx)
	o.spans.end(sp)
	if err != nil {
		return nil, 0, err
	}
	if want != 0 && rd.BlockIndex != want {
		return nil, 0, fmt.Errorf("read proved block %d, want %d", rd.BlockIndex, want)
	}
	t0 := time.Now()
	sp = o.spans.begin("export.Delete", 0)
	dc.SendDelete(rd.BlockIndex, rd.BlockHash)
	err = dc.WaitDeleteAcks(ctx, rd.BlockIndex, quorum)
	o.spans.end(sp)
	if err != nil {
		return nil, 0, err
	}
	return rd, time.Since(t0), nil
}

// exportLayers fills the export layer's per-layer metrics from its rounds:
// median read, verify (with archiving) and delete-acknowledgement times, and
// the replicas' export traffic per exported block.
func exportLayers(l map[string]float64, reads, verifies, deletes []float64, replyBytes uint64, blocks int) {
	l["export.read_ms"] = median(reads)
	l["export.verify_ms"] = median(verifies)
	l["export.delete_ack_ms"] = median(deletes)
	l["export.reply_bytes_per_block"] = perRec(float64(replyBytes), blocks)
}

// check verifies the export's outputs: the archive is a valid chain whose
// every block is the generated one, and a quorum of replicas pruned to the
// last deleted block.
func (exportWorkload) check(env *exportEnv) []string {
	var problems []string
	a := env.archive
	if err := a.VerifyChain(); err != nil {
		problems = append(problems, fmt.Sprintf("archive does not verify: %v", err))
	}
	for idx := uint64(1); idx <= a.HeadIndex(); idx++ {
		b, err := a.Get(idx)
		if err != nil || b.Hash() != env.gen.hashes[idx] {
			problems = append(problems, fmt.Sprintf("archive block %d is not the generated block (%v)", idx, err))
			break
		}
	}
	pruned := 0
	for i, n := range env.c.live() {
		if n.Store().Base() == a.HeadIndex() {
			pruned++
		}
		if err := n.Store().VerifyChain(); err != nil {
			problems = append(problems, fmt.Sprintf("replica %d: chain does not verify: %v", i, err))
		}
	}
	if pruned < quorum {
		problems = append(problems, fmt.Sprintf("%d replicas pruned to the archive head %d, want %d", pruned, a.HeadIndex(), quorum))
	}
	return problems
}
