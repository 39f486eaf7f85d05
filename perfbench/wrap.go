package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/transport"
)

// Mux tag ranges of the node's protocol channels (node.go); the meter splits
// traffic by them.
const (
	tagPBFT = iota
	tagCore
	tagExport
	tagOther
	numTags
)

var tagNames = [numTags]string{"pbft", "core", "export", "other"}

func tagClass(data []byte) int {
	if len(data) < 2 {
		return tagOther
	}
	switch t := binary.LittleEndian.Uint16(data); {
	case t >= 0x10 && t <= 0x2f:
		return tagPBFT
	case t >= 0x30 && t <= 0x3f:
		return tagCore
	case t >= 0x40 && t <= 0x4f:
		return tagExport
	}
	return tagOther
}

// netMeter counts what every wrapped transport hands to the network. A
// broadcast counts once per peer it is addressed to.
type netMeter struct {
	msgs  [numTags]atomic.Uint64
	bytes [numTags]atomic.Uint64
}

type netCounts struct {
	msgs, bytes [numTags]uint64
}

func (m *netMeter) add(data []byte, copies int) {
	c := tagClass(data)
	m.msgs[c].Add(uint64(copies))
	m.bytes[c].Add(uint64(copies * len(data)))
}

func (m *netMeter) snapshot() netCounts {
	var s netCounts
	for i := range s.msgs {
		s.msgs[i] = m.msgs[i].Load()
		s.bytes[i] = m.bytes[i].Load()
	}
	return s
}

func (s netCounts) sub(o netCounts) netCounts {
	for i := range s.msgs {
		s.msgs[i] -= o.msgs[i]
		s.bytes[i] -= o.bytes[i]
	}
	return s
}

func (s netCounts) totalBytes() uint64 {
	var t uint64
	for _, b := range s.bytes {
		t += b
	}
	return t
}

// meteredTransport is the transport the benchmark hands to node.New: it
// counts outbound traffic and, while spans are on, records a span around
// every send and every inbound delivery into the node's handler. It passes
// NetStats and Flusher through, so the node registers the same counter
// families as on the bare transport.
type meteredTransport struct {
	inner transport.Transport
	peers int // replicas a broadcast is addressed to
	meter *netMeter
	spans *spanLog
}

var (
	_ transport.Transport = (*meteredTransport)(nil)
	_ transport.NetStats  = (*meteredTransport)(nil)
	_ transport.Flusher   = (*meteredTransport)(nil)
)

func (t *meteredTransport) LocalID() crypto.NodeID { return t.inner.LocalID() }

func (t *meteredTransport) Send(to crypto.NodeID, data []byte) error {
	t.meter.add(data, 1)
	sp := t.spans.begin("transport.send", 0)
	err := t.inner.Send(to, data)
	t.spans.end(sp)
	return err
}

func (t *meteredTransport) Broadcast(data []byte) error {
	t.meter.add(data, t.peers)
	sp := t.spans.begin("transport.send", 0)
	err := t.inner.Broadcast(data)
	t.spans.end(sp)
	return err
}

func (t *meteredTransport) SetHandler(h transport.Handler) {
	t.inner.SetHandler(func(from crypto.NodeID, data []byte) {
		sp := t.spans.begin("transport.deliver", 0)
		h(from, data)
		t.spans.end(sp)
	})
}

func (t *meteredTransport) Close() error { return t.inner.Close() }

func (t *meteredTransport) NetCounters() *metrics.NetCounters {
	if ns, ok := t.inner.(transport.NetStats); ok {
		return ns.NetCounters()
	}
	return nil
}

func (t *meteredTransport) Flush() {
	if f, ok := t.inner.(transport.Flusher); ok {
		f.Flush()
	}
}

// countingClock is the clock the benchmark hands to node.New: the wall
// clock, with every timer the node arms counted and spanned.
type countingClock struct {
	timers atomic.Uint64
	spans  *spanLog
}

var _ clock.Clock = (*countingClock)(nil)

func (c *countingClock) Now() time.Time { return time.Now() }

func (c *countingClock) NewTimer(d time.Duration) clock.Timer {
	c.timers.Add(1)
	sp := c.spans.begin("clock.timer", 0)
	t := clock.Real{}.NewTimer(d)
	c.spans.end(sp)
	return t
}

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.timers.Add(1)
	sp := c.spans.begin("clock.timer", 0)
	ch := time.After(d)
	c.spans.end(sp)
	return ch
}
