package main

import (
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/node"
	"zugchain/internal/obsv"
)

// layerNames lists every per-layer metric a traced run prints, in order.
// BENCHMARK.json's per_layer list must name the same set.
var layerNames = []string{
	"mvb.handle_frame_us",
	"core.dup_per_rec", "core.decide_p50_ms", "core.decide_p99_ms", "core.open_peak", "core.broadcasts_per_krec",
	"clock.timers_per_rec",
	"pbft.recs_per_slot", "pbft.msgs_per_slot", "pbft.view_changes",
	"pbft.preprepare_ms", "pbft.prepare_ms", "pbft.commit_ms", "batch.wait_ms",
	"crypto.scalar_verifies_per_rec", "crypto.batched_sigs_per_rec", "crypto.cache_hit_ratio",
	"crypto.pool_queue_peak", "crypto.pool_task_max_ms",
	"crypto.sign_us", "crypto.verify_us", "crypto.batch64_verify_us",
	"wire.batch64_encode_us", "wire.batch64_decode_us", "wire.block_decode_us",
	"transport.msgs_per_rec.pbft", "transport.msgs_per_rec.core", "transport.msgs_per_rec.export",
	"transport.bytes_per_rec.pbft", "transport.bytes_per_rec.core", "transport.bytes_per_rec.export",
	"transport.send_us", "transport.deliver_us", "transport.frames_per_write", "transport.drops",
	"wal.fsyncs_per_rec", "wal.bytes_per_rec", "wal.recs_per_group", "wal.replay_ms",
	"store.syncs_per_block", "store.blocks_per_group", "blockchain.execute_to_fsync_ms",
	"export.read_ms", "export.verify_ms", "export.delete_ack_ms", "export.reply_bytes_per_block",
	"export.state_transfer_blocks",
	"node.restart_ms", "node.recovered_blocks", "node.recovered_wal_records", "node.window_restored",
	"go.alloc_bytes_per_rec", "go.gc_per_krec", "go.heap_peak_mb",
	"probe.core_dedup_us", "probe.block_seal_us", "probe.block_hash_us", "probe.wal_group_append_us",
	"probe.store_append_batch_us", "probe.verify_segment_us", "probe.tracer_stamp_ns",
	"self.mvb_us_per_rec", "self.core_us_per_rec", "self.transport_send_us_per_rec",
	"self.transport_deliver_us_per_rec", "self.clock_us_per_rec", "self.blockchain_us_per_rec",
	"self.export_us_per_rec", "self.node_us_per_rec",
	"trace.spans", "trace.cpu_overhead_pct", "trace.latency_overhead_pct",
}

// layerUnit gives a per-layer metric's unit, from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us") || strings.HasSuffix(name, "_us_per_rec"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_block"):
		return "B/block"
	case strings.Contains(name, "bytes_per"):
		return "B/rec"
	case strings.Contains(name, "_per_"):
		return "ratio"
	}
	return "count"
}

// gauges are registry values that are levels or maxima, not counters: the
// tally keeps their maximum instead of summing deltas.
var gauges = map[string]bool{
	"zugchain_pool_queue_peak":        true,
	"zugchain_pool_task_max_seconds":  true,
	"zugchain_net_queue_peak":         true,
	"zugchain_batch_wait_max_seconds": true,
}

// tally accumulates the program's own counters over the measured window,
// across replica incarnations: a replica killed mid-window contributes what
// it counted until the kill, its restarted incarnation what it counted
// since.
type tally struct {
	mu     sync.Mutex
	from   time.Time
	base   map[*node.Node]map[string]float64
	sum    map[string]float64
	decide []float64 // receive-to-decide ms inside the window, all replicas
	xfer   int       // blocks installed by state transfer
}

func newTally() *tally {
	return &tally{base: make(map[*node.Node]map[string]float64), sum: make(map[string]float64)}
}

// begin marks the window start for the replicas up now.
func (t *tally) begin(nodes []*node.Node, from time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.from = from
	for _, n := range nodes {
		if n != nil {
			t.base[n] = n.Obs().Registry.Values()
		}
	}
}

// retire adds what n counted since the window start (or since it started,
// when it started inside the window). It is called once per incarnation:
// at a kill and at the window end.
func (t *tally) retire(n *node.Node, to time.Time) {
	if n == nil {
		return
	}
	vals := n.Obs().Registry.Values()
	samples := n.Layer().Latency().TimedSamples()
	events := n.Obs().Journal.Events()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.base[n]
	for k, v := range vals {
		if gauges[k] {
			if v > t.sum[k] {
				t.sum[k] = v
			}
			continue
		}
		t.sum[k] += v - base[k]
	}
	for _, s := range samples {
		if !s.At.Before(t.from) && s.At.Before(to) {
			t.decide = append(t.decide, ms(s.D))
		}
	}
	for _, e := range events {
		if e.Kind == obsv.EventStateTransfer && !e.At.Before(t.from) {
			t.xfer += installedBlocks(e.Detail)
		}
	}
}

func (t *tally) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[name]
}

// installedBlocks parses "installed-blocks=N" out of a state-transfer
// journal entry.
func installedBlocks(detail string) int {
	for _, f := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(f, "installed-blocks="); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return 0
}

// procUsage is a reading of the process's own resource counters.
type procUsage struct {
	at     time.Time
	cpu    time.Duration // user + system
	alloc  uint64        // cumulative heap bytes allocated
	gcs    uint64
	net    netCounts
	timers uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set size over its whole life.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// goCounters reads cumulative allocation, GC cycles and live heap without
// stopping the world.
func goCounters() (alloc, gcs, heap uint64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	for i, v := range s {
		if v.Value.Kind() != metrics.KindUint64 {
			continue
		}
		switch i {
		case 0:
			alloc = v.Value.Uint64()
		case 1:
			gcs = v.Value.Uint64()
		case 2:
			heap = v.Value.Uint64()
		}
	}
	return alloc, gcs, heap
}

func readUsage(m *netMeter, clk *countingClock) procUsage {
	alloc, gcs, _ := goCounters()
	u := procUsage{at: time.Now(), cpu: cpuTime(), alloc: alloc, gcs: gcs}
	if m != nil {
		u.net = m.snapshot()
	}
	if clk != nil {
		u.timers = clk.timers.Load()
	}
	return u
}

// heapPeak tracks the live heap's maximum between samples.
type heapPeak struct {
	mu   sync.Mutex
	peak uint64
}

func (h *heapPeak) sample() {
	_, _, heap := goCounters()
	h.mu.Lock()
	if heap > h.peak {
		h.peak = heap
	}
	h.mu.Unlock()
}

func (h *heapPeak) mb() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// phaseMedians joins the primary's completed lifecycle traces to the run's
// records by payload digest and returns the median time each phase took
// (ms): batch wait, preprepare, prepare, commit, and execute-to-fsync.
func phaseMedians(traces []obsv.Trace, known func(d crypto.Digest) bool) map[string]float64 {
	type pair struct {
		name     string
		from, to obsv.Phase
	}
	pairs := []pair{
		{"batch.wait_ms", obsv.PhaseIngest, obsv.PhaseBatch},
		{"pbft.preprepare_ms", obsv.PhaseBatch, obsv.PhasePrePrepare},
		{"pbft.prepare_ms", obsv.PhasePrePrepare, obsv.PhasePrepare},
		{"pbft.commit_ms", obsv.PhasePrepare, obsv.PhaseCommit},
		{"blockchain.execute_to_fsync_ms", obsv.PhaseExecute, obsv.PhaseFsync},
	}
	out := make(map[string]float64)
	for _, p := range pairs {
		var xs []float64
		for _, tr := range traces {
			if !known(tr.Digest) {
				continue
			}
			a, b := tr.Times[p.from], tr.Times[p.to]
			if a.IsZero() || b.IsZero() {
				continue
			}
			xs = append(xs, ms(b.Sub(a)))
		}
		if len(xs) > 0 {
			out[p.name] = median(xs)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
