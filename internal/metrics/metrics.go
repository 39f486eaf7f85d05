// Package metrics collects the measurements used to reproduce the paper's
// evaluation: request latencies (Fig 6, 8, 9), network utilization (Fig 6),
// and the CPU/memory work proxies (Fig 7, 9).
//
// Real CPU-percent measurements on 800 MHz ARM cores are not reproducible on
// commodity machines, so CPU load is approximated by counting the dominant
// work items — signature generation/verification and protocol messages
// handled — while memory is sampled from the Go runtime. DESIGN.md §1
// documents this substitution.
package metrics

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric handle. It is safe for
// concurrent use and the zero value is ready to use; a family struct
// declares one per series, with the series' name and help in the field's
// `metric` and `help` tags (see obsv.Registry.RegisterFamily).
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous-value metric handle: a level (queue depth) or a
// high-water mark (SetMax). Durations are stored in nanoseconds and tagged
// `unit:"ns"` so the exporter reports them in seconds. It is safe for
// concurrent use and the zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d and returns the new value.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Counters aggregates the communication layer's message and request
// accounting (Fig 6/7). All methods are safe for concurrent use. The zero
// value is ready to use.
type Counters struct {
	MsgsSent      Counter `metric:"zugchain_core_msgs_sent_total" help:"Layer messages sent"`
	MsgsReceived  Counter `metric:"zugchain_core_msgs_received_total" help:"Layer messages received"`
	BytesSent     Counter `metric:"zugchain_core_bytes_sent_total" help:"Layer bytes sent"`
	BytesReceived Counter `metric:"zugchain_core_bytes_received_total" help:"Layer bytes received"`
	Signatures    Counter `metric:"zugchain_core_signatures_total" help:"Signatures generated"`
	Verifications Counter `metric:"zugchain_core_verifications_total" help:"Signatures verified"`
	Requests      Counter `metric:"zugchain_core_ordered_total" help:"Requests ordered and logged"`
	Duplicates    Counter `metric:"zugchain_core_duplicates_total" help:"Duplicate requests filtered"`
}

// AddSent records an outbound message of n bytes.
func (c *Counters) AddSent(n int) {
	c.MsgsSent.Add(1)
	c.BytesSent.Add(uint64(n))
}

// AddReceived records an inbound message of n bytes.
func (c *Counters) AddReceived(n int) {
	c.MsgsReceived.Add(1)
	c.BytesReceived.Add(uint64(n))
}

// CounterSnapshot is a point-in-time copy of all counters.
type CounterSnapshot struct {
	MsgsSent      uint64
	MsgsReceived  uint64
	BytesSent     uint64
	BytesReceived uint64
	Signatures    uint64
	Verifications uint64
	Requests      uint64
	Duplicates    uint64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		MsgsSent:      c.MsgsSent.Load(),
		MsgsReceived:  c.MsgsReceived.Load(),
		BytesSent:     c.BytesSent.Load(),
		BytesReceived: c.BytesReceived.Load(),
		Signatures:    c.Signatures.Load(),
		Verifications: c.Verifications.Load(),
		Requests:      c.Requests.Load(),
		Duplicates:    c.Duplicates.Load(),
	}
}

// Sub returns the element-wise difference s - earlier, for interval metrics.
func (s CounterSnapshot) Sub(earlier CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		MsgsSent:      s.MsgsSent - earlier.MsgsSent,
		MsgsReceived:  s.MsgsReceived - earlier.MsgsReceived,
		BytesSent:     s.BytesSent - earlier.BytesSent,
		BytesReceived: s.BytesReceived - earlier.BytesReceived,
		Signatures:    s.Signatures - earlier.Signatures,
		Verifications: s.Verifications - earlier.Verifications,
		Requests:      s.Requests - earlier.Requests,
		Duplicates:    s.Duplicates - earlier.Duplicates,
	}
}

// CPUWorkUnits collapses the snapshot into a single CPU-load proxy. The
// weights reflect that Ed25519 operations dominate per-message handling cost
// on the paper's hardware (sign ≈ verify ≈ 30–60 µs on Cortex-A9; framing
// and hashing are an order of magnitude cheaper).
func (s CounterSnapshot) CPUWorkUnits() float64 {
	const (
		signCost   = 10.0
		verifyCost = 10.0
		msgCost    = 1.0
		byteCost   = 0.001
	)
	return signCost*float64(s.Signatures) +
		verifyCost*float64(s.Verifications) +
		msgCost*float64(s.MsgsSent+s.MsgsReceived) +
		byteCost*float64(s.BytesSent+s.BytesReceived)
}

// CryptoCounters instruments the Ed25519 acceleration layer: how many
// signatures settled via the batched multi-scalar equation versus individual
// scalar verifies, how often a failed batch had to bisect to find the corrupt
// entries, and the verified-signature cache's hit/miss/eviction traffic. It
// keeps O(1) state so it can sit on the verification hot path. The zero
// value is ready to use.
type CryptoCounters struct {
	ScalarVerifies Counter `metric:"zugchain_crypto_scalar_verifies_total" help:"Individual signature verifications"`
	BatchedSigs    Counter `metric:"zugchain_crypto_batched_sigs_total" help:"Signatures settled via batch equations"`
	BatchOps       Counter `metric:"zugchain_crypto_batch_ops_total" help:"Batch equations evaluated"`
	BatchMax       Gauge   `metric:"zugchain_crypto_batch_max" help:"Largest single batch equation"`
	Bisections     Counter `metric:"zugchain_crypto_bisections_total" help:"Bisection splits hunting corrupt signatures"`
	CacheHits      Counter `metric:"zugchain_crypto_cache_hits_total" help:"Verified-signature cache hits"`
	CacheMisses    Counter `metric:"zugchain_crypto_cache_misses_total" help:"Verified-signature cache misses"`
	CacheEvictions Counter `metric:"zugchain_crypto_cache_evictions_total" help:"Verified-signature cache evictions"`
}

// RecordBatch records one batched verification equation covering n
// signatures.
func (c *CryptoCounters) RecordBatch(n int) {
	c.BatchOps.Add(1)
	c.BatchedSigs.Add(uint64(n))
	c.BatchMax.SetMax(int64(n))
}

// PoolCounters instruments an asynchronous worker pool (the signature
// verification pipeline): how many tasks ran on pool workers versus inline on
// the submitting goroutine, the current and peak queue depth, and the
// longest submit-to-completion task latency. It keeps O(1) state so it can
// sit on the verification hot path. The zero value is ready to use.
type PoolCounters struct {
	Offloaded Counter `metric:"zugchain_pool_offloaded_total" help:"Tasks run on pool workers"`
	Inline    Counter `metric:"zugchain_pool_inline_total" help:"Tasks run inline on the submitter"`
	// Panics nonzero means a verification callback has a bug; the pool
	// survives, the counter makes the bug visible.
	Panics     Counter `metric:"zugchain_pool_panics_total" help:"Task panics contained by workers"`
	QueueDepth Gauge   `metric:"zugchain_pool_queue_depth" help:"Instantaneous task queue depth"`
	QueuePeak  Gauge   `metric:"zugchain_pool_queue_peak" help:"Peak task queue depth"`
	TaskMax    Gauge   `metric:"zugchain_pool_task_max_seconds" help:"Longest task submit-to-completion latency" unit:"ns"`
}

// BatchCounters instruments the primary's request coalescing (the ordering
// hot path's batching stage): how many flushes happened and why (the batch
// filled up, or the max-batch-delay expired), how many records they carried,
// and the longest wait of a flush's oldest record. The zero value is ready
// to use.
type BatchCounters struct {
	Flushes      Counter `metric:"zugchain_batch_flushes_total" help:"Proposal batches flushed"`
	Records      Counter `metric:"zugchain_batch_records_total" help:"Records carried by flushed batches"`
	SizeFlushes  Counter `metric:"zugchain_batch_size_flushes_total" help:"Flushes triggered by the size limit"`
	DelayFlushes Counter `metric:"zugchain_batch_delay_flushes_total" help:"Flushes triggered by the delay timer"`
	MaxSize      Gauge   `metric:"zugchain_batch_max_size" help:"Largest single flush"`
	WaitMax      Gauge   `metric:"zugchain_batch_wait_max_seconds" help:"Longest batching wait" unit:"ns"`
}

// RecordFlush records one batch flush of size records whose oldest record
// waited wait; byDelay reports whether the max-batch-delay timer (rather
// than the size limit) triggered it.
func (b *BatchCounters) RecordFlush(size int, wait time.Duration, byDelay bool) {
	b.Flushes.Add(1)
	b.Records.Add(uint64(size))
	if byDelay {
		b.DelayFlushes.Add(1)
	} else {
		b.SizeFlushes.Add(1)
	}
	b.MaxSize.SetMax(int64(size))
	b.WaitMax.SetMax(int64(wait))
}

// GroupCommitCounters instruments the blockchain store's group-commit
// writer: how many durable write groups ran, how many blocks they covered
// (one directory fsync per group makes every block in it durable at once),
// and how many explicit Sync barriers were requested. The zero value is
// ready to use.
type GroupCommitCounters struct {
	Groups Counter `metric:"zugchain_store_groups_total" help:"Fsynced block write groups"`
	Blocks Counter `metric:"zugchain_store_blocks_total" help:"Blocks covered by write groups"`
	Syncs  Counter `metric:"zugchain_store_syncs_total" help:"Explicit Sync barriers"`
}

// RecordGroup records one committed write group of n blocks.
func (g *GroupCommitCounters) RecordGroup(n int) {
	g.Groups.Add(1)
	g.Blocks.Add(uint64(n))
}

// NetCounters instruments a transport's asynchronous outbound pipeline (the
// per-peer send queues and their coalescing writers): queue depth and peak,
// frames dropped on queue overflow or lost to broken connections, how many
// frames each write syscall carried (Frames/WriteOps is the amortization the
// vectored writer achieves), and background redials. The zero value is
// ready to use.
type NetCounters struct {
	Enqueued    Counter `metric:"zugchain_net_enqueued_total" help:"Frames accepted into send queues"`
	Drops       Counter `metric:"zugchain_net_drops_total" help:"Frames dropped by queue overflow"`
	WriteErrors Counter `metric:"zugchain_net_write_errors_total" help:"Frames lost to failed connection writes"`
	WriteOps    Counter `metric:"zugchain_net_write_ops_total" help:"Write syscalls issued"`
	Frames      Counter `metric:"zugchain_net_frames_total" help:"Frames carried by write syscalls"`
	Redials     Counter `metric:"zugchain_net_redials_total" help:"Background reconnection attempts"`
	QueueDepth  Gauge   `metric:"zugchain_net_queue_depth" help:"Instantaneous outbound backlog"`
	QueuePeak   Gauge   `metric:"zugchain_net_queue_peak" help:"Peak outbound backlog"`
}

// Enqueue records one frame entering a send queue, tracking peak depth.
// Frames leave the queue through QueueDepth.Add(-k).
func (n *NetCounters) Enqueue() {
	n.Enqueued.Add(1)
	n.QueuePeak.SetMax(n.QueueDepth.Add(1))
}

// AddWrite records one write syscall that flushed k coalesced frames.
func (n *NetCounters) AddWrite(k int) {
	n.WriteOps.Add(1)
	n.Frames.Add(uint64(k))
}

// WALCounters instruments the PBFT write-ahead log: how many fsync'd append
// groups ran and how many records/bytes they carried (Records/Groups is the
// group-commit amortization of the durability cost), plus checkpoint
// rotations and what recovery found on open. The zero value is ready to use.
type WALCounters struct {
	Groups         Counter `metric:"zugchain_wal_groups_total" help:"Fsynced WAL append groups"`
	Records        Counter `metric:"zugchain_wal_records_total" help:"Records carried by append groups"`
	Bytes          Counter `metric:"zugchain_wal_bytes_total" help:"Payload bytes appended"`
	Rotations      Counter `metric:"zugchain_wal_rotations_total" help:"Checkpoint-triggered segment rotations"`
	Replayed       Counter `metric:"zugchain_wal_replayed_total" help:"Records replayed by recovery on open"`
	TruncatedBytes Counter `metric:"zugchain_wal_truncated_bytes_total" help:"Corrupt tail bytes discarded by recovery"`
}

// RecordGroup records one fsync'd append group of n records totalling b
// payload bytes.
func (w *WALCounters) RecordGroup(n, b int) {
	w.Groups.Add(1)
	w.Records.Add(uint64(n))
	w.Bytes.Add(uint64(b))
}

// DefaultLatencyCap bounds how many samples a Latency retains. It is sized
// well above any experiment run reproducing the paper's figures (a few
// thousand records), so those keep exact percentiles, while a long-running
// daemon's memory stays fixed: once the cap is reached the ring overwrites
// the oldest samples and statistics describe the most recent window.
const DefaultLatencyCap = 1 << 16

// Latency accumulates duration samples in a bounded ring and reports
// distribution statistics over the retained window. It is safe for
// concurrent use; the zero value is ready to use with DefaultLatencyCap.
type Latency struct {
	mu      sync.Mutex
	cap     int // 0 = DefaultLatencyCap
	samples []TimedSample
	next    int  // overwrite position once full
	wrapped bool // the ring has overwritten at least one sample
	total   uint64
}

// SetCap bounds the retained samples (before the cap is reached). Values
// <= 0 select DefaultLatencyCap. Calling it after samples were dropped to
// a smaller previous cap does not recover them.
func (l *Latency) SetCap(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 {
		n = DefaultLatencyCap
	}
	l.cap = n
}

func (l *Latency) capLocked() int {
	if l.cap <= 0 {
		return DefaultLatencyCap
	}
	return l.cap
}

// Record adds one sample, stamping it with the wall-clock arrival time so
// time series (the view-change latency timeline of Fig 8) can be rebuilt.
// Past the cap, the oldest sample is overwritten.
func (l *Latency) Record(d time.Duration) {
	now := time.Now()
	l.mu.Lock()
	l.total++
	if max := l.capLocked(); len(l.samples) >= max {
		l.samples[l.next] = TimedSample{At: now, D: d}
		l.next = (l.next + 1) % max
		l.wrapped = true
	} else {
		l.samples = append(l.samples, TimedSample{At: now, D: d})
	}
	l.mu.Unlock()
}

// TimedSample is one latency observation with its wall-clock arrival time.
type TimedSample struct {
	At time.Time
	D  time.Duration
}

// TimedSamples returns the retained samples with their arrival timestamps
// in arrival order (the full history until the cap is reached, the most
// recent window after).
func (l *Latency) TimedSamples() []TimedSample {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TimedSample, 0, len(l.samples))
	if l.wrapped {
		out = append(out, l.samples[l.next:]...)
		out = append(out, l.samples[:l.next]...)
		return out
	}
	return append(out, l.samples...)
}

// Count reports the number of retained samples.
func (l *Latency) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// Total reports the number of samples ever recorded, including any the
// ring has overwritten.
func (l *Latency) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped reports how many samples the ring has overwritten.
func (l *Latency) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total - uint64(len(l.samples))
}

// LatencyStats summarizes a latency distribution.
type LatencyStats struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Stats computes distribution statistics over the retained samples (exact
// until the ring cap is reached, the most recent window after).
func (l *Latency) Stats() LatencyStats {
	l.mu.Lock()
	samples := make([]time.Duration, len(l.samples))
	for i := range l.samples {
		samples[i] = l.samples[i].D
	}
	l.mu.Unlock()

	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	n := len(samples)
	return LatencyStats{
		Count:  n,
		Mean:   sum / time.Duration(n),
		Median: samples[n/2],
		P99:    samples[percentileIndex(n, 0.99)],
		Max:    samples[n-1],
	}
}

// Samples returns a copy of the retained samples in arrival order, used for
// the view-change latency timeline (Fig 8).
func (l *Latency) Samples() []time.Duration {
	timed := l.TimedSamples()
	out := make([]time.Duration, len(timed))
	for i := range timed {
		out[i] = timed[i].D
	}
	return out
}

// Reset discards all samples (retained and counted).
func (l *Latency) Reset() {
	l.mu.Lock()
	l.samples = l.samples[:0]
	l.next = 0
	l.wrapped = false
	l.total = 0
	l.mu.Unlock()
}

func percentileIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// MemorySample captures the Go heap state as the memory-usage proxy.
type MemorySample struct {
	HeapAlloc  uint64
	TotalAlloc uint64
	NumGC      uint32
}

// SampleMemory reads the current runtime memory statistics.
func SampleMemory() MemorySample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemorySample{
		HeapAlloc:  ms.HeapAlloc,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
}
