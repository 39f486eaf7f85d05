package main

import (
	"fmt"
	"sync"
	"time"

	"zugchain/internal/blockchain"
)

// sealObserver polls every replica's store and stamps each block with the
// moment a quorum of replicas holds it: the WAL pins digests only, so a
// record is durable once its block is sealed, and it counts as stored once
// 2f+1 replicas have sealed it. The observer hands every entry of a
// quorum-sealed block to join, keyed by the record id its payload carries.
type sealObserver struct {
	stores func() []*blockchain.Store // one slot per replica, nil while down
	parse  func(payload []byte) (id uint64, ok bool)
	join   func(id uint64, payload []byte, at time.Time)
	sample func()   // optional, called about every 10 ms
	spans  *spanLog // spans around the store reads

	mu         sync.Mutex
	heads      []uint64
	holders    map[uint64]int // block index -> replicas holding it
	sealTimes  []time.Time    // quorum time of each sealed block, ascending
	quorumHead uint64
	problems   []string

	stop chan struct{}
	done chan struct{}
}

func newSealObserver(stores func() []*blockchain.Store, parse func([]byte) (uint64, bool), join func(uint64, []byte, time.Time)) *sealObserver {
	return &sealObserver{
		stores:  stores,
		parse:   parse,
		join:    join,
		heads:   make([]uint64, replicas),
		holders: make(map[uint64]int),
	}
}

// poll scans the replicas once.
func (o *sealObserver) poll(now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, s := range o.stores() {
		if s == nil {
			continue
		}
		sp := o.spans.begin("blockchain.HeadIndex", 0)
		head := s.HeadIndex()
		o.spans.end(sp)
		for idx := o.heads[i] + 1; idx <= head; idx++ {
			o.holders[idx]++
			if o.holders[idx] != quorum {
				continue
			}
			sp := o.spans.begin("blockchain.Get", 0)
			b, err := s.Get(idx)
			o.spans.end(sp)
			if err != nil {
				o.problems = append(o.problems, fmt.Sprintf("replica %d: block %d: %v", i, idx, err))
				continue
			}
			o.sealTimes = append(o.sealTimes, now)
			if idx > o.quorumHead {
				o.quorumHead = idx
			}
			for _, e := range b.Entries {
				id, ok := o.parse(e.Payload)
				if !ok {
					o.problems = append(o.problems, fmt.Sprintf("block %d seq %d: payload carries no record id", idx, e.Seq))
					continue
				}
				o.join(id, e.Payload, now)
			}
		}
		if head > o.heads[i] {
			o.heads[i] = head
		}
	}
}

// run polls every interval until halt.
func (o *sealObserver) run(interval time.Duration) {
	o.stop = make(chan struct{})
	o.done = make(chan struct{})
	go func() {
		defer close(o.done)
		n := 0
		for {
			select {
			case <-o.stop:
				return
			default:
			}
			o.poll(time.Now())
			if n++; o.sample != nil && n%10 == 0 {
				o.sample()
			}
			time.Sleep(interval)
		}
	}()
}

// halt stops the polling goroutine and waits for it, then polls once more.
func (o *sealObserver) halt() {
	if o.stop != nil {
		close(o.stop)
		<-o.done
		o.stop = nil
	}
	o.poll(time.Now())
}

// quorumHeadIndex is the highest block index sealed on a quorum.
func (o *sealObserver) quorumHeadIndex() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.quorumHead
}

func (o *sealObserver) seals() []time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]time.Time(nil), o.sealTimes...)
}
