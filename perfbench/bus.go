package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/mvb"
	"zugchain/internal/node"
	"zugchain/internal/obsv"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

// Open-loop bus feed settings: the paper's fastest MVB cycle and 1 kB
// records, the deployment the JRU budget is judged on (§V-B).
const (
	busCycle   = 32 * time.Millisecond
	busPayload = 1024
	jruBudget  = 500 * time.Millisecond
	warmup     = time.Second
	drainMax   = 5 * time.Second
	pollEvery  = time.Millisecond
)

// Failover schedule: the current primary is killed every killPeriod,
// starting killFirst into the window, and restarted from its data dir
// killDown later.
const (
	killFirst  = time.Second
	killPeriod = 4 * time.Second
	killDown   = 1500 * time.Millisecond
	// probeFeed is how long the traced run's recovery probe keeps ordering
	// while a backup is down.
	probeFeed = 2 * time.Second
)

// busInput is the generated bus traffic: one frame per cycle and the
// record payload a replica whose filter saw every earlier frame derives
// from it (node.HandleFrame's parse and change filter).
type busInput struct {
	frames   []mvb.Frame
	payloads [][]byte
	digests  []crypto.Digest
	index    map[crypto.Digest]int
}

func genBus(seed int64, n int) *busInput {
	bus := mvb.NewBus(mvb.Config{CycleTime: busCycle})
	bus.Attach(mvb.NewSignalDevice(signal.NewGenerator(signal.GeneratorConfig{Seed: seed, PayloadSize: busPayload})))
	filter := signal.NewFilter(nil)
	in := &busInput{index: make(map[crypto.Digest]int)}
	for k := 0; k < n; k++ {
		f := bus.Tick()
		rec, _ := mvb.ParseFrame(f)
		p := (&signal.Record{Cycle: rec.Cycle, Signals: filter.Apply(rec.Signals)}).Marshal()
		in.frames = append(in.frames, f)
		in.payloads = append(in.payloads, p)
		in.digests = append(in.digests, crypto.Hash(p))
		in.index[in.digests[k]] = k
	}
	return in
}

// freshPayload is what a replica with a fresh change filter (a restart)
// records for frame k: every signal, since it has seen no earlier value.
func (in *busInput) freshPayload(k uint64) []byte {
	rec, _ := mvb.ParseFrame(in.frames[k])
	return (&signal.Record{Cycle: rec.Cycle, Signals: rec.Signals}).Marshal()
}

func parseCycle(payload []byte) (uint64, bool) {
	rec, err := signal.UnmarshalRecord(payload)
	if err != nil {
		return 0, false
	}
	return rec.Cycle, true
}

func digestID(d crypto.Digest) uint64 { return binary.BigEndian.Uint64(d[:8]) }

// recordTable is the run's records with their seal stamps, shared by the
// load generator and the seal observer.
type recordTable struct {
	mu       sync.Mutex
	recs     []record
	extra    int // sealed payloads that are a restart's fresh-filter variant
	problems []string
	pending  int // window records fed but not yet sealed
	from, to time.Time
}

func newRecordTable(n int, from, to time.Time) *recordTable {
	return &recordTable{recs: make([]record, n), from: from, to: to}
}

func (t *recordTable) inWindow(due time.Time) bool {
	return !due.Before(t.from) && due.Before(t.to)
}

// offer stamps record id as offered, due at due. Ids are dense: the table
// grows to hold the next one.
func (t *recordTable) offer(id int, due time.Time) {
	t.mu.Lock()
	for id >= len(t.recs) {
		t.recs = append(t.recs, record{})
	}
	t.recs[id].due = due
	if t.inWindow(due) {
		t.pending++
	}
	t.mu.Unlock()
}

// seal stamps record id sealed at at; the first quorum seal counts. A
// payload sealed twice is caught by checkChains.
func (t *recordTable) seal(id uint64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= uint64(len(t.recs)) {
		t.problems = append(t.problems, fmt.Sprintf("sealed record %d was never generated", id))
		return
	}
	r := &t.recs[id]
	if !r.sealed.IsZero() {
		return
	}
	r.sealed = at
	if !r.due.IsZero() && t.inWindow(r.due) {
		t.pending--
	}
}

// variant counts a sealed restart variant of a record: a record of its
// own, not the cycle's seal.
func (t *recordTable) variant() {
	t.mu.Lock()
	t.extra++
	t.mu.Unlock()
}

func (t *recordTable) problem(format string, args ...any) {
	t.mu.Lock()
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// drained reports whether every window record fed so far is sealed.
func (t *recordTable) drained() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending == 0
}

func (t *recordTable) snapshot() []record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]record(nil), t.recs...)
}

// busWorkload is the open-loop bus feed: bus-jru over TCP, and
// primary-failover on the in-process network with the primary killed on a
// fixed schedule.
type busWorkload struct {
	failover bool
}

type busEnv struct {
	in   *busInput
	c    *cluster
	root string
}

// setup generates the run's bus feed and builds the cluster on fresh data
// dirs. The feed covers the window, the drain, and the traced run's
// recovery probe.
func (w busWorkload) setup(o *runOpts) (*busEnv, error) {
	in := genBus(o.seed, int((warmup+o.seconds+drainMax+probeFeed+drainMax)/busCycle)+2)
	root, err := os.MkdirTemp(o.work, "bus-")
	if err != nil {
		return nil, err
	}
	c, err := newCluster(clusterConfig{
		tcp:        !w.failover,
		dataRoot:   root,
		maxBatch:   16,
		batchDelay: 2 * time.Millisecond,
		withDC:     true,
	}, o.seed, o.spans)
	if err != nil {
		_ = os.RemoveAll(root)
		return nil, err
	}
	return &busEnv{in: in, c: c, root: root}, nil
}

func (e *busEnv) teardown() {
	e.c.stop()
	_ = os.RemoveAll(e.root)
}

// killRecord is one primary kill of the failover schedule.
type killRecord struct {
	replica      int
	at, restart  time.Time
	until        time.Time // end of the interval the outage is measured in
	replay       time.Duration
	restartDur   time.Duration
	rejoin       time.Duration
	rejoined     bool
	recovery     node.RecoveryInfo
	transferred  int // blocks the restarted replica installed by state transfer
	restartError error
}

func (w busWorkload) run(o *runOpts) (*result, error) {
	env, setupS, err := measureSetup(func() (*busEnv, error) { return w.setup(o) }, (*busEnv).teardown)
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	c, in := env.c, env.in

	start := time.Now().Add(20 * time.Millisecond)
	ws := start.Add(warmup)
	we := ws.Add(o.seconds)
	mid := ws.Add(o.seconds / 2)
	tab := newRecordTable(len(in.frames), ws, we)
	hp := &heapPeak{}
	openPeak := 0
	var openMu sync.Mutex

	obs := newSealObserver(c.stores, parseCycle, func(id uint64, payload []byte, at time.Time) {
		switch {
		case id < uint64(len(in.payloads)) && bytes.Equal(payload, in.payloads[id]):
		case id < uint64(len(in.payloads)) && bytes.Equal(payload, in.freshPayload(id)):
			tab.variant()
			return
		default:
			tab.problem("sealed payload for record %d differs from the generated bytes", id)
		}
		tab.seal(id, at)
	})
	obs.sample = func() {
		hp.sample()
		for _, n := range c.live() {
			if n == nil {
				continue
			}
			if v := n.Layer().OpenRequests(); v > 0 {
				openMu.Lock()
				if v > openPeak {
					openPeak = v
				}
				openMu.Unlock()
			}
		}
	}
	obs.spans = o.spans
	obs.run(pollEvery)
	defer obs.halt()

	tl := newTally()
	var kills []*killRecord
	var killWG sync.WaitGroup
	if w.failover {
		killWG.Add(1)
		go func() {
			defer killWG.Done()
			kills = w.killLoop(c, obs, tl, ws, we)
		}()
	}

	// The load generator: one goroutine, each frame to every live replica
	// but skip (-1: none) at its due time.
	var lags []float64
	var frameTime time.Duration
	var frameCalls int
	k := 0
	feed := func(skip int) bool {
		if k >= len(in.frames) {
			return false
		}
		due := start.Add(time.Duration(k) * busCycle)
		sleepUntil(due)
		if tab.inWindow(due) {
			lags = append(lags, ms(time.Since(due)))
		}
		tab.offer(k, due)
		rid := digestID(in.digests[k])
		for i, n := range c.live() {
			if n == nil || i == skip {
				continue
			}
			sp := o.spans.begin("mvb.HandleFrame", rid)
			t0 := time.Now()
			n.HandleFrame(in.frames[k])
			if tab.inWindow(due) {
				frameTime += time.Since(t0)
				frameCalls++
			}
			o.spans.end(sp)
		}
		k++
		return true
	}
	var u0, uMid, u1 procUsage
	var view0 uint64
	phase := 0
	for {
		due := start.Add(time.Duration(k) * busCycle)
		if phase == 0 && !due.Before(ws) {
			sleepUntil(ws)
			u0 = readUsage(c.meter, c.clk)
			view0 = c.maxView()
			tl.begin(c.live(), ws)
			phase = 1
		}
		if phase == 1 && !due.Before(mid) {
			sleepUntil(mid)
			uMid = readUsage(c.meter, c.clk)
			o.spans.on.Store(o.trace)
			phase = 2
		}
		if phase == 2 && !due.Before(we) {
			sleepUntil(we)
			u1 = readUsage(c.meter, c.clk)
			o.spans.on.Store(false)
			phase = 3
		}
		if phase == 3 && (tab.drained() || !due.Before(we.Add(drainMax))) {
			break
		}
		if !feed(-1) {
			return nil, fmt.Errorf("bus feed ran out of its %d frames", len(in.frames))
		}
	}
	killWG.Wait()
	viewEnd := c.maxView()
	for _, n := range c.live() {
		tl.retire(n, we)
	}

	// The steady feed restarts no replica, so its traced run probes
	// recovery and export after the window, on the cluster's own chain.
	var probeProblems []string
	var exp *exportProbe
	if o.trace && !w.failover {
		kills = append(kills, probeRecovery(c, obs, feed))
		exp, err = probeExport(o, c)
		if err != nil {
			probeProblems = append(probeProblems, fmt.Sprintf("export probe: %v", err))
		}
	}
	obs.halt()

	acc := account(tab.snapshot(), ws, we, jruBudget)
	res := newResult(o.workload)
	res.attempted, res.failed = acc.attempted, acc.failed
	tab.mu.Lock()
	res.problems = append(res.problems, tab.problems...)
	extra := tab.extra
	tab.mu.Unlock()
	res.problems = append(res.problems, obs.problems...)
	res.problems = append(res.problems, probeProblems...)
	res.problems = append(res.problems, checkChains(c.live(), parseCycle, func(id uint64, p []byte) bool {
		return id < uint64(len(in.payloads)) && (bytes.Equal(p, in.payloads[id]) || bytes.Equal(p, in.freshPayload(id)))
	})...)
	if w.failover && extra > len(kills) {
		res.problem("%d fresh-filter records sealed for %d restarts", extra, len(kills))
	}

	// The rate counts records sealed inside the window over its measured
	// length, so it shows whether sealing keeps up with the schedule.
	window := u1.at.Sub(u0.at)
	sealedIn := 0
	for _, r := range tab.snapshot() {
		if !r.sealed.Before(u0.at) && r.sealed.Before(u1.at) {
			sealedIn++
		}
	}
	rate := float64(sealedIn) / window.Seconds()
	lat := sortedCopy(acc.latencies)
	res.setE2E("seal", lat, rate, u1.cpu-u0.cpu, u1.net.sub(u0.net).totalBytes(), acc.sealed, setupS)
	gl := sortedCopy(lags)
	glv, glq := tail(gl)
	res.report("late_frac", acc.lateFrac(), "ratio")
	res.report("fail_frac", acc.failFrac(), "ratio")
	res.report("ordered_rps", rate, "1/s")
	res.reportTail("gen_lag", glv, glq, len(gl))
	res.note("records due in window %d, sealed %d, late %d, never sealed %d, restart variants %d",
		acc.attempted, acc.sealed, acc.late, acc.failed, extra)

	if w.failover {
		var outages, rejoins []float64
		seals := obs.seals()
		for _, k := range kills {
			outages = append(outages, ms(longestGap(seals, k.at, k.until)))
			if k.restartError != nil {
				res.problem("restart of replica %d: %v", k.replica, k.restartError)
				continue
			}
			rejoins = append(rejoins, ms(k.rejoin))
			if !k.rejoined {
				res.note("replica %d had not reached the quorum head %s after its restart", k.replica, k.rejoin.Round(time.Millisecond))
			}
		}
		res.report("outage_ms", median(outages), "ms")
		res.report("rejoin_ms", median(rejoins), "ms")
		res.note("kills %d: outages %v ms, rejoins %v ms", len(kills), roundAll(outages), roundAll(rejoins))
	}

	if o.trace {
		l := res.layers
		l["mvb.handle_frame_us"] = us(frameTime) / float64(max(frameCalls, 1))
		commonLayers(l, tl, u0, u1, float64(acc.sealed), viewEnd-view0)
		openMu.Lock()
		l["core.open_peak"] = float64(openPeak)
		openMu.Unlock()
		l["go.heap_peak_mb"] = hp.mb()
		if p := c.live()[c.primary()]; p != nil && p.Obs().Tracer != nil {
			for k, v := range phaseMedians(p.Obs().Tracer.Traces(), func(d crypto.Digest) bool {
				_, ok := in.index[d]
				return ok
			}) {
				l[k] = v
			}
		}
		recs := tab.snapshot()
		first := halfOf(recs, ws, mid, jruBudget, uMid.cpu-u0.cpu)
		second := halfOf(recs, mid, we, jruBudget, u1.cpu-uMid.cpu)
		reportOverhead(res, first, second)
		spanLayers(res, o.spans, account(recs, mid, we, jruBudget).sealed)
		recoveryLayers(l, kills)
		xfer := tl.xfer
		for _, k := range kills {
			xfer += k.transferred
		}
		l["export.state_transfer_blocks"] = float64(xfer)
		if exp != nil {
			exportLayers(l, []float64{ms(exp.read.ReadDuration)}, []float64{ms(exp.read.VerifyDuration)},
				[]float64{ms(exp.deleteAck)}, exp.replyBytes, exp.read.NewBlocks)
			res.note("export probe: %d blocks read, verified, archived and deleted", exp.read.NewBlocks)
		}
		runProbes(o, res, c, in.payloads[:64], lastSealed(tab, in.payloads))
	}
	return res, nil
}

// killLoop runs the failover schedule: kill the current primary, restart it
// from its data dir killDown later, and time its rejoin.
func (w busWorkload) killLoop(c *cluster, obs *sealObserver, tl *tally, ws, we time.Time) []*killRecord {
	var kills []*killRecord
	for at := ws.Add(killFirst); at.Add(killDown).Before(we.Add(-500 * time.Millisecond)); at = at.Add(killPeriod) {
		sleepUntil(at)
		i := c.primary()
		killAt := time.Now()
		tl.retire(c.live()[i], killAt)
		c.kill(i)
		sleepUntil(at.Add(killDown))
		k := restartReplica(c, i, obs.quorumHeadIndex(), minTime(at.Add(killPeriod), we.Add(drainMax)), pause)
		k.at, k.until = killAt, minTime(at.Add(killPeriod), we)
		kills = append(kills, k)
	}
	return kills
}

// restartReplica restarts the down replica i from its data dir and, calling
// wait in between, polls until its chain reaches head (the quorum head when
// it restarted) or the deadline passes.
func restartReplica(c *cluster, i int, head uint64, deadline time.Time, wait func()) *killRecord {
	k := &killRecord{replica: i, restart: time.Now()}
	k.replay, k.restartError = c.start(i)
	k.restartDur = time.Since(k.restart)
	if k.restartError != nil {
		return k
	}
	n := c.live()[i]
	k.recovery = n.Recovery()
	for !time.Now().After(deadline) {
		if n.Store().HeadIndex() >= head {
			k.rejoined = true
			break
		}
		wait()
	}
	k.rejoin = time.Since(k.restart)
	return k
}

func pause() { time.Sleep(2 * time.Millisecond) }

// probeRecovery kills a backup, keeps ordering without it for probeFeed,
// then restarts it from its data dir and keeps ordering, without feeding it
// the bus, until it has caught up with the quorum head it restarted behind:
// WAL replay, store reload and state transfer on the workload's own chain.
func probeRecovery(c *cluster, obs *sealObserver, feed func(skip int) bool) *killRecord {
	i := (c.primary() + 1) % replicas
	c.kill(i)
	for end := time.Now().Add(probeFeed); time.Now().Before(end) && feed(i); {
	}
	k := restartReplica(c, i, obs.quorumHeadIndex(), time.Now().Add(drainMax), func() {
		if !feed(i) {
			pause()
		}
	})
	if n := c.live()[i]; n != nil {
		for _, e := range n.Obs().Journal.Events() {
			if e.Kind == obsv.EventStateTransfer {
				k.transferred += installedBlocks(e.Detail)
			}
		}
	}
	return k
}

// exportProbe is the outcome of the traced run's export round.
type exportProbe struct {
	read       *export.ReadResult
	deleteAck  time.Duration
	replyBytes uint64
}

// probeExport runs one export round over TCP on the cluster's own chain: a
// data center dials the replicas as cmd/zc-datacenter does, reads every
// block up to the latest stable checkpoint, verifies and archives them on
// disk, and deletes them.
func probeExport(o *runOpts, c *cluster) (*exportProbe, error) {
	tr, err := transport.NewTCP(c.dcID, "", c.addrs)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	dir, err := os.MkdirTemp(o.work, "archive-")
	if err != nil {
		return nil, err
	}
	archive, err := blockchain.NewStore(dir)
	if err != nil {
		return nil, err
	}
	defer archive.Close()
	dc := newDataCenter(c, archive, &meteredTransport{inner: tr, peers: replicas, meter: &netMeter{}}, o.seed)
	before := c.meter.snapshot()
	rd, del, err := exportRound(o, dc, 0)
	if err != nil {
		return nil, err
	}
	if err := archive.VerifyChain(); err != nil {
		return nil, fmt.Errorf("archive does not verify: %w", err)
	}
	return &exportProbe{read: rd, deleteAck: del, replyBytes: c.meter.snapshot().sub(before).bytes[tagExport]}, nil
}

// recoveryLayers reports what the restarted replicas recovered, as medians
// over the restarts.
func recoveryLayers(l map[string]float64, kills []*killRecord) {
	var replay, restart, blocks, walRecs, window []float64
	for _, k := range kills {
		if k.restartError != nil {
			continue
		}
		replay = append(replay, ms(k.replay))
		restart = append(restart, ms(k.restartDur))
		blocks = append(blocks, float64(k.recovery.StoreReport.Loaded))
		walRecs = append(walRecs, float64(k.recovery.WALRecords))
		window = append(window, float64(k.recovery.WindowRestored))
	}
	l["wal.replay_ms"] = median(replay)
	l["node.restart_ms"] = median(restart)
	l["node.recovered_blocks"] = median(blocks)
	l["node.recovered_wal_records"] = median(walRecs)
	l["node.window_restored"] = median(window)
}

// lastSealed returns a payload the cluster decided recently, for the
// warm-window dedup probe.
func lastSealed(tab *recordTable, payloads [][]byte) []byte {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for i := len(tab.recs) - 1; i >= 0; i-- {
		if !tab.recs[i].sealed.IsZero() {
			return payloads[i]
		}
	}
	return nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*10+0.5)) / 10
	}
	return out
}
