// Package wal is an append-only write-ahead log for the PBFT layer's
// stable-storage requirement: Castro–Liskov replicas must log protocol
// messages before sending them so a crashed replica comes back remembering
// what it vouched for. Records are CRC-32C framed inside numbered segment
// files; appends are group-committed (one fsync covers every append waiting
// at that moment, the same amortization blockchain.Store uses for blocks);
// recovery on open replays the longest contiguous valid prefix and reports
// — rather than silently drops — any torn tail a crash left behind.
// Checkpoint-based truncation is a segment rotation: the caller hands the
// log a compact snapshot of live state, which seeds a fresh segment, and
// every older segment is deleted.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"zugchain/internal/metrics"
	"zugchain/internal/wire"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// RecoveryReport describes what Open found on disk.
type RecoveryReport struct {
	// Segments counts segment files that survived recovery; Records the
	// records replayed from them.
	Segments int
	Records  int
	// TruncatedBytes counts corrupt tail bytes discarded from the last
	// valid segment; TruncatedSegments whole segments discarded because
	// they followed the corruption point.
	TruncatedBytes    int64
	TruncatedSegments int
}

// Truncated reports whether recovery discarded anything.
func (r RecoveryReport) Truncated() bool {
	return r.TruncatedBytes > 0 || r.TruncatedSegments > 0
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	dir      string
	counters metrics.WALCounters

	writeCh chan *appendReq
	quit    chan struct{}
	done    chan struct{}

	closeOnce sync.Once

	// Writer-goroutine state: only the writer touches these after Open.
	f   *os.File
	seg uint64
	enc *wire.Encoder
}

type appendReq struct {
	recs   []Record
	rotate bool
	err    chan error
}

const segPattern = "wal-%08d.log"

// Open opens (creating if necessary) the log in dir, replays every valid
// record in segment order, and starts the group-commit writer. The replayed
// records are returned in append order for the caller to interpret; the
// report says whether a torn tail was discarded.
func Open(dir string) (*Log, []Record, RecoveryReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoveryReport{}, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, RecoveryReport{}, err
	}

	var (
		records []Record
		report  RecoveryReport
		dirty   bool // recovery modified the directory
	)
	keep := len(segs)
	for i, seg := range segs {
		path := filepath.Join(dir, fmt.Sprintf(segPattern, seg))
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, RecoveryReport{}, err
		}
		off := 0
		torn := false
		for off < len(buf) {
			r, n, err := readFrame(buf[off:])
			if err != nil {
				torn = true
				break
			}
			records = append(records, r)
			off += n
		}
		if !torn {
			continue
		}
		// A torn frame marks the point the crash interrupted a write.
		// Nothing at or after it can be trusted: truncate this segment
		// and discard every later one.
		report.TruncatedBytes += int64(len(buf) - off)
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, nil, RecoveryReport{}, err
		}
		dirty = true
		keep = i + 1
		for _, later := range segs[i+1:] {
			lp := filepath.Join(dir, fmt.Sprintf(segPattern, later))
			if fi, err := os.Stat(lp); err == nil {
				report.TruncatedBytes += fi.Size()
			}
			if err := os.Remove(lp); err != nil {
				return nil, nil, RecoveryReport{}, err
			}
			report.TruncatedSegments++
		}
		break
	}
	segs = segs[:keep]
	report.Segments = len(segs)
	report.Records = len(records)

	active := uint64(1)
	if len(segs) > 0 {
		active = segs[len(segs)-1]
	} else {
		dirty = true
	}
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf(segPattern, active)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, RecoveryReport{}, err
	}
	if dirty {
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, nil, RecoveryReport{}, err
		}
	}

	l := &Log{
		dir:     dir,
		writeCh: make(chan *appendReq),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		f:       f,
		seg:     active,
		enc:     wire.NewEncoder(4096),
	}
	l.counters.Replayed.Add(uint64(len(records)))
	l.counters.TruncatedBytes.Add(uint64(report.TruncatedBytes))
	go l.commitLoop()
	return l, records, report, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Counters exposes the log's instrumentation.
func (l *Log) Counters() *metrics.WALCounters { return &l.counters }

// Append durably writes recs, returning once they (and every record queued
// before them) have been fsync'd. Concurrent appends are group-committed:
// all requests waiting when the writer gets the disk share one fsync.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	return l.submit(&appendReq{recs: recs, err: make(chan error, 1)})
}

// Rotate starts a fresh segment seeded with snapshot — the caller's compact
// restatement of all state still live after a stable checkpoint — then
// deletes every older segment. Appends queued behind the rotation land in
// the new segment.
func (l *Log) Rotate(snapshot []Record) error {
	return l.submit(&appendReq{recs: snapshot, rotate: true, err: make(chan error, 1)})
}

func (l *Log) submit(req *appendReq) error {
	select {
	case l.writeCh <- req:
		return <-req.err
	case <-l.quit:
		return ErrClosed
	}
}

// Close stops the writer and closes the active segment. Pending appends
// fail with ErrClosed.
func (l *Log) Close() error {
	l.closeOnce.Do(func() { close(l.quit) })
	<-l.done
	return nil
}

// commitLoop is the single writer goroutine: it drains all waiting requests
// into one group, encodes their frames into one buffer, and retires the
// group with a single write+fsync. A sticky failure poisons the log — once
// an fsync fails nothing more may be acknowledged as durable.
func (l *Log) commitLoop() {
	defer close(l.done)
	defer l.f.Close()
	var failed error
	for {
		var first *appendReq
		select {
		case <-l.quit:
			return
		case first = <-l.writeCh:
		}
		group := []*appendReq{first}
		// A rotation runs alone; otherwise greedily absorb whatever else
		// is already waiting, stopping before a rotation.
		if !first.rotate {
		drain:
			for {
				select {
				case req := <-l.writeCh:
					group = append(group, req)
					if req.rotate {
						break drain
					}
				default:
					break drain
				}
			}
		}
		if failed != nil {
			for _, req := range group {
				req.err <- failed
			}
			continue
		}
		failed = l.commitGroup(group)
	}
}

// commitGroup writes the group. If the last request is a rotation, the
// preceding appends are flushed to the old segment first, then the rotation
// runs. Returns the sticky error, if any.
func (l *Log) commitGroup(group []*appendReq) error {
	last := group[len(group)-1]
	appends := group
	if last.rotate {
		appends = group[:len(group)-1]
	}
	if len(appends) > 0 {
		if err := l.writeGroup(appends); err != nil {
			for _, req := range group {
				req.err <- err
			}
			return err
		}
		for _, req := range appends {
			req.err <- nil
		}
	}
	if !last.rotate {
		return nil
	}
	err := l.rotate(last.recs)
	last.err <- err
	return err
}

func (l *Log) writeGroup(group []*appendReq) error {
	l.enc.Reset()
	n := 0
	for _, req := range group {
		for _, r := range req.recs {
			frameRecord(l.enc, r)
			n++
		}
	}
	if _, err := l.f.Write(l.enc.Data()); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.counters.RecordGroup(n, l.enc.Len())
	return nil
}

// rotate creates segment seg+1 seeded with snapshot, makes it durable, then
// deletes all older segments. Crash-safety: the new segment is fsync'd (file
// and directory entry) before any old segment is removed, so recovery always
// finds either the old segments intact or the snapshot — replaying both,
// when a crash lands between the two dir syncs, is harmless because snapshot
// records restate rather than contradict the old state.
func (l *Log) rotate(snapshot []Record) error {
	next := l.seg + 1
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, next))
	nf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.enc.Reset()
	for _, r := range snapshot {
		frameRecord(l.enc, r)
	}
	if _, err := nf.Write(l.enc.Data()); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return err
	}
	old := l.f
	oldSeg := l.seg
	l.f, l.seg = nf, next
	old.Close()
	for seg := oldSeg; seg >= 1; seg-- {
		op := filepath.Join(l.dir, fmt.Sprintf(segPattern, seg))
		if err := os.Remove(op); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return err
		}
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.counters.Rotations.Add(1)
	return nil
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), segPattern, &n); err == nil && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
