package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.AddSent(100)
	c.AddSent(50)
	c.AddReceived(30)
	c.Signatures.Add(1)
	c.Verifications.Add(1)
	c.Verifications.Add(1)
	c.Requests.Add(1)
	c.Duplicates.Add(1)

	s := c.Snapshot()
	if s.MsgsSent != 2 || s.BytesSent != 150 {
		t.Errorf("sent = %d msgs / %d bytes, want 2/150", s.MsgsSent, s.BytesSent)
	}
	if s.MsgsReceived != 1 || s.BytesReceived != 30 {
		t.Errorf("received = %d msgs / %d bytes, want 1/30", s.MsgsReceived, s.BytesReceived)
	}
	if s.Signatures != 1 || s.Verifications != 2 {
		t.Errorf("crypto = %d sigs / %d verifies", s.Signatures, s.Verifications)
	}
	if s.Requests != 1 || s.Duplicates != 1 {
		t.Errorf("requests = %d, duplicates = %d", s.Requests, s.Duplicates)
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.AddSent(10)
	before := c.Snapshot()
	c.AddSent(25)
	c.Requests.Add(1)
	diff := c.Snapshot().Sub(before)
	if diff.MsgsSent != 1 || diff.BytesSent != 25 || diff.Requests != 1 {
		t.Errorf("diff = %+v", diff)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddSent(1)
				c.AddReceived(2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.MsgsSent != 8000 || s.BytesReceived != 16000 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestCPUWorkUnitsMonotone(t *testing.T) {
	light := CounterSnapshot{MsgsSent: 10, BytesSent: 1000}
	heavy := CounterSnapshot{MsgsSent: 10, BytesSent: 1000, Signatures: 5, Verifications: 20}
	if light.CPUWorkUnits() >= heavy.CPUWorkUnits() {
		t.Errorf("work proxy not monotone: light=%v heavy=%v",
			light.CPUWorkUnits(), heavy.CPUWorkUnits())
	}
	var zero CounterSnapshot
	if zero.CPUWorkUnits() != 0 {
		t.Errorf("zero snapshot work = %v", zero.CPUWorkUnits())
	}
}

func TestLatencyStats(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	s := l.Stats()
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", s.Mean)
	}
	if s.Median != 51*time.Millisecond {
		t.Errorf("Median = %v, want 51ms", s.Median)
	}
	if s.P99 != 99*time.Millisecond {
		t.Errorf("P99 = %v, want 99ms", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", s.Max)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if s := l.Stats(); s != (LatencyStats{}) {
		t.Errorf("Stats() on empty = %+v", s)
	}
}

func TestLatencySingleSample(t *testing.T) {
	var l Latency
	l.Record(7 * time.Millisecond)
	s := l.Stats()
	if s.Mean != 7*time.Millisecond || s.Median != 7*time.Millisecond ||
		s.P99 != 7*time.Millisecond || s.Max != 7*time.Millisecond {
		t.Errorf("Stats() = %+v", s)
	}
}

func TestLatencySamplesOrderAndReset(t *testing.T) {
	var l Latency
	l.Record(3 * time.Millisecond)
	l.Record(1 * time.Millisecond)
	l.Record(2 * time.Millisecond)
	got := l.Samples()
	want := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Samples()[%d] = %v, want %v (arrival order)", i, got[i], want[i])
		}
	}
	l.Reset()
	if l.Count() != 0 {
		t.Errorf("Count after Reset = %d", l.Count())
	}
}

func TestPercentileIndex(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		want int
	}{
		{1, 0.99, 0},
		{100, 0.99, 98},
		{100, 0.50, 49},
		{10, 1.0, 9},
		{10, 0.0, 0},
	}
	for _, tt := range tests {
		if got := percentileIndex(tt.n, tt.p); got != tt.want {
			t.Errorf("percentileIndex(%d, %v) = %d, want %d", tt.n, tt.p, got, tt.want)
		}
	}
}

func TestSampleMemory(t *testing.T) {
	s := SampleMemory()
	if s.HeapAlloc == 0 || s.TotalAlloc == 0 {
		t.Errorf("memory sample = %+v, want nonzero alloc", s)
	}
}

func TestPoolCountersSnapshot(t *testing.T) {
	var p PoolCounters
	for i := 0; i < 3; i++ {
		p.QueuePeak.SetMax(p.QueueDepth.Add(1))
	}
	p.QueueDepth.Add(-1)
	p.Offloaded.Add(1)
	p.Inline.Add(1)
	p.TaskMax.SetMax(int64(10 * time.Millisecond))
	p.TaskMax.SetMax(int64(30 * time.Millisecond))
	p.TaskMax.SetMax(int64(20 * time.Millisecond))

	if p.Offloaded.Load() != 1 || p.Inline.Load() != 1 {
		t.Errorf("offloaded = %d, inline = %d, want 1/1", p.Offloaded.Load(), p.Inline.Load())
	}
	if got := p.QueueDepth.Load(); got != 2 {
		t.Errorf("queue depth = %d, want 2", got)
	}
	if got := p.QueuePeak.Load(); got != 3 {
		t.Errorf("queue peak = %d, want 3", got)
	}
	if got := time.Duration(p.TaskMax.Load()); got != 30*time.Millisecond {
		t.Errorf("task max = %v, want 30ms", got)
	}
}

func TestPoolCountersConcurrent(t *testing.T) {
	var p PoolCounters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.QueuePeak.SetMax(p.QueueDepth.Add(1))
				p.QueueDepth.Add(-1)
				p.Offloaded.Add(1)
				p.TaskMax.SetMax(int64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	if got := p.Offloaded.Load(); got != 8000 {
		t.Errorf("offloaded = %d, want 8000", got)
	}
	if got := p.QueueDepth.Load(); got != 0 {
		t.Errorf("final queue depth = %d, want 0", got)
	}
	if got := p.QueuePeak.Load(); got < 1 {
		t.Errorf("queue peak = %d, want >= 1", got)
	}
}

// TestGaugeSetMaxConcurrent: racing SetMax calls must leave exactly the
// largest value offered, never a smaller one that lost a CAS race.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	var g Gauge
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Interleaved values: every worker offers both small and
				// large values, and the global maximum comes from the last worker.
				g.SetMax(int64(i*workers + w))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Load(), int64((each-1)*workers+workers-1); got != want {
		t.Errorf("max = %d, want %d", got, want)
	}
	g.SetMax(-1)
	if got := g.Load(); got != int64((each-1)*workers+workers-1) {
		t.Errorf("smaller SetMax lowered the gauge to %d", got)
	}
	g.Set(5)
	if got := g.Load(); got != 5 {
		t.Errorf("Set(5) left %d", got)
	}
}

func TestBatchCountersSnapshot(t *testing.T) {
	var b BatchCounters
	if b.Flushes.Load() != 0 || b.MaxSize.Load() != 0 || b.WaitMax.Load() != 0 {
		t.Error("zero value is not zero")
	}
	b.RecordFlush(4, 2*time.Millisecond, false)
	b.RecordFlush(8, 6*time.Millisecond, true)
	b.RecordFlush(3, time.Millisecond, true)

	if b.Flushes.Load() != 3 || b.Records.Load() != 15 {
		t.Errorf("flushes/records = %d/%d", b.Flushes.Load(), b.Records.Load())
	}
	if b.SizeFlushes.Load() != 1 || b.DelayFlushes.Load() != 2 {
		t.Errorf("triggers = %d size, %d delay", b.SizeFlushes.Load(), b.DelayFlushes.Load())
	}
	if got := b.MaxSize.Load(); got != 8 {
		t.Errorf("max size = %d, want 8", got)
	}
	if got := time.Duration(b.WaitMax.Load()); got != 6*time.Millisecond {
		t.Errorf("max wait = %v, want 6ms", got)
	}
}

func TestGroupCommitCountersSnapshot(t *testing.T) {
	var g GroupCommitCounters
	if g.Groups.Load() != 0 || g.Blocks.Load() != 0 || g.Syncs.Load() != 0 {
		t.Error("zero value is not zero")
	}
	g.RecordGroup(1)
	g.RecordGroup(7)
	g.RecordGroup(4)
	g.Syncs.Add(1)
	g.Syncs.Add(1)

	if g.Groups.Load() != 3 || g.Blocks.Load() != 12 || g.Syncs.Load() != 2 {
		t.Errorf("groups=%d blocks=%d syncs=%d, want 3/12/2", g.Groups.Load(), g.Blocks.Load(), g.Syncs.Load())
	}
}

func TestBatchCountersConcurrent(t *testing.T) {
	var b BatchCounters
	var g GroupCommitCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.RecordFlush(w+1, time.Duration(i)*time.Microsecond, i%2 == 0)
				g.RecordGroup(w + 1)
			}
		}(w)
	}
	wg.Wait()
	if b.Flushes.Load() != 8000 || b.MaxSize.Load() != 8 {
		t.Errorf("batch flushes=%d max=%d, want 8000/8", b.Flushes.Load(), b.MaxSize.Load())
	}
	if g.Groups.Load() != 8000 || g.Blocks.Load() != 36000 {
		t.Errorf("groups=%d blocks=%d, want 8000/36000", g.Groups.Load(), g.Blocks.Load())
	}
}

func TestNetCountersSnapshot(t *testing.T) {
	var n NetCounters
	for i := 0; i < 5; i++ {
		n.Enqueue()
	}
	n.QueueDepth.Add(-3)
	n.Drops.Add(1)
	n.QueueDepth.Add(-1) // the dropped frame leaves the queue too
	n.AddWrite(3)
	n.WriteErrors.Add(2)
	n.Redials.Add(1)

	if n.Enqueued.Load() != 5 || n.Drops.Load() != 1 || n.WriteErrors.Load() != 2 || n.Redials.Load() != 1 {
		t.Errorf("enqueued=%d drops=%d write-errors=%d redials=%d",
			n.Enqueued.Load(), n.Drops.Load(), n.WriteErrors.Load(), n.Redials.Load())
	}
	if n.WriteOps.Load() != 1 || n.Frames.Load() != 3 {
		t.Errorf("coalescing: ops=%d frames=%d", n.WriteOps.Load(), n.Frames.Load())
	}
	if n.QueueDepth.Load() != 1 || n.QueuePeak.Load() != 5 {
		t.Errorf("depth = %d, peak = %d, want 1/5", n.QueueDepth.Load(), n.QueuePeak.Load())
	}
}

func TestNetCountersZero(t *testing.T) {
	var n NetCounters
	for _, c := range []*Counter{&n.Enqueued, &n.Drops, &n.WriteErrors, &n.WriteOps, &n.Frames, &n.Redials} {
		if c.Load() != 0 {
			t.Errorf("zero-value counter = %d", c.Load())
		}
	}
	if n.QueueDepth.Load() != 0 || n.QueuePeak.Load() != 0 {
		t.Errorf("zero-value depth/peak = %d/%d", n.QueueDepth.Load(), n.QueuePeak.Load())
	}
}

func TestNetCountersConcurrent(t *testing.T) {
	var n NetCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Enqueue()
				n.QueueDepth.Add(-1)
				n.AddWrite(2)
			}
		}()
	}
	wg.Wait()
	if n.Enqueued.Load() != 8000 || n.QueueDepth.Load() != 0 {
		t.Errorf("enqueued = %d, depth = %d", n.Enqueued.Load(), n.QueueDepth.Load())
	}
	if n.WriteOps.Load() != 8000 || n.Frames.Load() != 16000 {
		t.Errorf("ops=%d frames=%d", n.WriteOps.Load(), n.Frames.Load())
	}
	if peak := n.QueuePeak.Load(); peak < 1 || peak > 8 {
		t.Errorf("peak = %d out of [1,8]", peak)
	}
}
