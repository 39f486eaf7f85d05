package main

import (
	"os"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/wal"
)

// perOp runs f n times and returns the mean time per call.
func perOp(n int, f func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// buildBlocks chains count blocks of blockSize entries over payloads.
func buildBlocks(payloads [][]byte, count int) []*blockchain.Block {
	bd := blockchain.NewBuilder(blockchain.Genesis(), blockSize)
	var out []*blockchain.Block
	for seq := uint64(1); len(out) < count; seq++ {
		p := payloads[int(seq)%len(payloads)]
		if b := bd.Add(blockchain.Entry{Seq: seq, Origin: crypto.NodeID(seq % replicas), Payload: p}); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// runProbes times one public function per layer on the workload's own
// inputs, after the measured window (traced runs only). payloads are up to
// 64 of the workload's records; decided is a payload the cluster already
// ordered (nil when none was), for the warm-window dedup probe.
func runProbes(o *runOpts, r *result, c *cluster, payloads [][]byte, decided []byte) {
	l := r.layers
	kp := c.kps[c.ids[0]]
	reqs := make([]pbft.Request, 64)
	for i := range reqs {
		reqs[i] = pbft.Request{Payload: payloads[i%len(payloads)], Origin: kp.ID}
	}
	l["crypto.sign_us"] = us(perOp(len(reqs), func(i int) { pbft.SignRequest(&reqs[i], kp) }))
	l["crypto.verify_us"] = us(perOp(len(reqs), func(i int) {
		if err := pbft.VerifyRequest(&reqs[i], c.reg); err != nil {
			r.problem("probe: signed request %d does not verify: %v", i, err)
		}
	}))
	sigs := make([][]byte, len(reqs))
	for i := range reqs {
		sigs[i] = kp.Sign(reqs[i].Payload)
	}
	l["crypto.batch64_verify_us"] = us(perOp(20, func(int) {
		bv := c.reg.NewBatchVerifier(len(reqs))
		for i := range reqs {
			bv.Add(kp.ID, reqs[i].Payload, sigs[i])
		}
		if bad := bv.Verify(); len(bad) > 0 {
			r.problem("probe: batch verification rejected %d valid signatures", len(bad))
		}
	}))

	var enc []byte
	l["wire.batch64_encode_us"] = us(perOp(200, func(int) { enc = pbft.EncodeBatch(reqs) }))
	l["wire.batch64_decode_us"] = us(perOp(200, func(int) {
		if got, err := pbft.DecodeBatch(enc); err != nil || len(got) != len(reqs) {
			r.problem("probe: batch decode: %d records, %v", len(got), err)
		}
	}))

	blocks := buildBlocks(payloads, 200)
	raw := blocks[len(blocks)-1].Marshal()
	l["wire.block_decode_us"] = us(perOp(200, func(int) {
		if _, err := blockchain.Unmarshal(raw); err != nil {
			r.problem("probe: block decode: %v", err)
		}
	}))
	l["probe.verify_segment_us"] = us(perOp(5, func(int) {
		if err := blockchain.VerifySegment(blockchain.Genesis().Header, blocks); err != nil {
			r.problem("probe: segment verify: %v", err)
		}
	})) / float64(len(blocks))

	bd := blockchain.NewBuilder(blockchain.Genesis(), 1<<30)
	seq := uint64(0)
	var sealed *blockchain.Block
	l["probe.block_seal_us"] = us(perOp(200, func(int) {
		for j := 0; j < blockSize; j++ {
			seq++
			bd.Add(blockchain.Entry{Seq: seq, Origin: kp.ID, Payload: payloads[int(seq)%len(payloads)]})
		}
		sealed = bd.SealCheckpoint(seq)
	}))
	l["probe.block_hash_us"] = us(perOp(2000, func(int) { _ = sealed.Hash() }))

	if dir, err := os.MkdirTemp(o.work, "probe-wal-"); err == nil {
		if lg, _, _, err := wal.Open(dir); err == nil {
			group := make([]wal.Record, 8)
			for i := range group {
				group[i] = wal.Record{Kind: wal.KindPrepare, Seq: uint64(i + 1), Digest: crypto.Hash(payloads[i%len(payloads)])}
			}
			l["probe.wal_group_append_us"] = us(perOp(50, func(int) {
				if err := lg.Append(group...); err != nil {
					r.problem("probe: wal append: %v", err)
				}
			}))
			_ = lg.Close()
		} else {
			r.problem("probe: wal open: %v", err)
		}
		_ = os.RemoveAll(dir)
	}
	if dir, err := os.MkdirTemp(o.work, "probe-store-"); err == nil {
		if s, err := blockchain.NewStore(dir); err == nil {
			l["probe.store_append_batch_us"] = us(perOp(len(blocks)/10, func(i int) {
				if err := s.AppendBatch(blocks[i*10 : i*10+10]); err != nil {
					r.problem("probe: store group append: %v", err)
				}
			}))
			_ = s.Close()
		} else {
			r.problem("probe: store open: %v", err)
		}
		_ = os.RemoveAll(dir)
	}

	// Each record is begun and then stamped once: two stamps per call.
	tr := obsv.NewTracer(obsv.TracerOptions{})
	digests := make([]crypto.Digest, 4096)
	for i := range digests {
		digests[i] = crypto.Hash(append([]byte{byte(i), byte(i >> 8)}, payloads[i%len(payloads)]...))
	}
	l["probe.tracer_stamp_ns"] = float64(perOp(len(digests), func(i int) {
		tr.BeginRecord(digests[i])
		tr.StampRecord(digests[i], obsv.PhaseBatch)
	}).Nanoseconds()) / 2

	if decided != nil {
		if n := c.live()[c.primary()]; n != nil {
			l["probe.core_dedup_us"] = us(perOp(1000, func(int) { n.Layer().OnBusRecord(0, decided) }))
		}
	}
}
