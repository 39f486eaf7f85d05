package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanLog records the benchmark's spans: one per call the benchmark makes
// into a layer and one per call through its transport and clock wrappers.
// Spans are kept in memory and written out when the run ends. A span's
// parent is the innermost span still open on the same goroutine, so a send
// made from inside a delivery handler nests under that delivery. All
// methods are nil-safe; while off, begin costs one atomic load.
type spanLog struct {
	on    atomic.Bool
	t0    time.Time
	limit int

	mu      sync.Mutex
	spans   []span
	stack   map[uint64][]int32 // goroutine -> open spans, innermost last
	dropped int
}

type span struct {
	name       string
	start, end time.Duration // since t0; end is 0 while open
	parent     int32         // index of the enclosing span, -1 for a root
	gid        uint64
	rec        uint64 // record id: the first 8 bytes of the payload digest
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{t0: time.Now(), limit: limit, stack: make(map[uint64][]int32)}
}

// begin opens a span and returns its handle, -1 when spans are off.
func (l *spanLog) begin(name string, rec uint64) int32 {
	if l == nil || !l.on.Load() {
		return -1
	}
	gid := goid()
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.dropped++
		return -1
	}
	parent := int32(-1)
	if st := l.stack[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, start: now, parent: parent, gid: gid, rec: rec})
	l.stack[gid] = append(l.stack[gid], i)
	return i
}

// end closes the span begin returned.
func (l *spanLog) end(i int32) {
	if i < 0 {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[i]
	s.end = now
	st := l.stack[s.gid]
	for j := len(st) - 1; j >= 0; j-- {
		if st[j] == i {
			st = append(st[:j], st[j+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(l.stack, s.gid)
	} else {
		l.stack[s.gid] = st
	}
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	n     int
	total time.Duration // summed durations
	self  time.Duration // summed durations minus their child spans
}

// stats reduces the closed spans per span name. A span's self time is its
// duration minus the time its child spans cover; children on one goroutine
// nest strictly, so their durations never overlap.
func (l *spanLog) stats() map[string]spanStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.end > 0 && s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]spanStat)
	for i, s := range l.spans {
		if s.end == 0 {
			continue
		}
		st := out[s.name]
		st.n++
		st.total += s.end - s.start
		st.self += s.end - s.start - children[i]
		out[s.name] = st
	}
	return out
}

// write stores the spans as tab-separated lines: name, start and end in ns
// since the log opened, parent index, goroutine, record id.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tstart_ns\tend_ns\tparent\tgoroutine\trecord\n")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%016x\n", s.name, s.start, s.end, s.parent, s.gid, s.rec)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, which is why
// only traced runs pay it.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	var id uint64
	for i := 0; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
	}
	return id
}
