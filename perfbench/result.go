package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// e2eNames lists the end-to-end metrics every workload prints with
// --trace 0, in order. BENCHMARK.json's end_to_end list names the same set.
var e2eNames = []string{
	"latency_p50_ms", "latency_p90_ms", "records_per_s",
	"cpu_ms_per_rec", "net_bytes_per_rec", "setup_s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // failed output checks
	e2e       map[string]metric
	extra     []namedMetric // the workload's own end-to-end figures, under their own names (seal_p50_ms, late_frac, ...)
	notes     []string
	layers    map[string]float64
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: make(map[string]metric), layers: make(map[string]float64)}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) report(name string, v float64, unit string) {
	r.extra = append(r.extra, namedMetric{Name: name, Value: v, Unit: unit})
}

// reportTail reports a tail figure under the percentile the sample count
// supports, e.g. seal_p95_ms, with the count it rests on.
func (r *result) reportTail(prefix string, v, q float64, n int) {
	name := fmt.Sprintf("%s_p%d_ms", prefix, int(math.Round(q*100)))
	if q >= 1 {
		name = prefix + "_max_ms"
	}
	r.report(name, v, "ms")
	r.note("%s rests on %d samples", name, n)
}

// setE2E fills the gated end-to-end metrics from the window's sorted
// latencies (ms), and reports the workload's own median and highest
// supported tail percentile under prefix. Peak memory is reported but not
// gated: on the closed loops the in-memory chain grows with the records
// ordered, so a throughput gain would read as a memory regression.
func (r *result) setE2E(prefix string, lat []float64, perSec float64, cpu time.Duration, netBytes uint64, recs int, setupS float64) {
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.90)
	r.e2e["latency_p50_ms"] = metric{p50, "ms"}
	r.e2e["latency_p90_ms"] = metric{p90, "ms"}
	r.e2e["records_per_s"] = metric{perSec, "1/s"}
	r.e2e["cpu_ms_per_rec"] = metric{perRec(ms(cpu), recs), "ms"}
	r.e2e["net_bytes_per_rec"] = metric{perRec(float64(netBytes), recs), "B"}
	r.e2e["setup_s"] = metric{setupS, "s"}
	r.report(prefix+"_p50_ms", p50, "ms")
	tv, tq := tail(lat)
	r.reportTail(prefix, tv, tq, len(lat))
	r.report("rss_peak_mb", rssPeakMB(), "MB")
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 11

// measureSetup sets the workload up setupRounds times from a collected
// heap, tearing down all but the last, and returns the last environment
// with the median set-up time.
func measureSetup[E any](setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			teardown(e)
			continue
		}
		env = e
	}
	sort.Float64s(times)
	return env, times[len(times)/2], nil
}

// commonLayers fills the per-layer metrics every ordering workload reads
// from the program's own counters over the window.
func commonLayers(l map[string]float64, tl *tally, u0, u1 procUsage, recs float64, views uint64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	net := u1.net.sub(u0.net)
	flushes := tl.get("zugchain_batch_flushes_total")
	l["core.dup_per_rec"] = div(tl.get("zugchain_core_duplicates_total"), recs)
	l["core.broadcasts_per_krec"] = div(1000*float64(net.msgs[tagCore]), recs)
	tl.mu.Lock()
	dec := sortedCopy(tl.decide)
	tl.mu.Unlock()
	l["core.decide_p50_ms"], _ = percentile(dec, 0.5)
	if v, ok := percentile(dec, 0.99); ok {
		l["core.decide_p99_ms"] = v
	}
	l["clock.timers_per_rec"] = div(float64(u1.timers-u0.timers), recs)
	l["pbft.recs_per_slot"] = div(tl.get("zugchain_batch_records_total"), flushes)
	l["pbft.msgs_per_slot"] = div(float64(net.msgs[tagPBFT]), flushes)
	l["pbft.view_changes"] = float64(views)
	l["crypto.scalar_verifies_per_rec"] = div(tl.get("zugchain_crypto_scalar_verifies_total"), recs)
	l["crypto.batched_sigs_per_rec"] = div(tl.get("zugchain_crypto_batched_sigs_total"), recs)
	hits, misses := tl.get("zugchain_crypto_cache_hits_total"), tl.get("zugchain_crypto_cache_misses_total")
	l["crypto.cache_hit_ratio"] = div(hits, hits+misses)
	l["crypto.pool_queue_peak"] = tl.get("zugchain_pool_queue_peak")
	l["crypto.pool_task_max_ms"] = 1000 * tl.get("zugchain_pool_task_max_seconds")
	for c := tagPBFT; c <= tagExport; c++ {
		l["transport.msgs_per_rec."+tagNames[c]] = div(float64(net.msgs[c]), recs)
		l["transport.bytes_per_rec."+tagNames[c]] = div(float64(net.bytes[c]), recs)
	}
	l["transport.frames_per_write"] = div(tl.get("zugchain_net_frames_total"), tl.get("zugchain_net_write_ops_total"))
	l["transport.drops"] = tl.get("zugchain_net_drops_total")
	walGroups := tl.get("zugchain_wal_groups_total")
	l["wal.fsyncs_per_rec"] = div(walGroups, recs)
	l["wal.bytes_per_rec"] = div(tl.get("zugchain_wal_bytes_total"), recs)
	l["wal.recs_per_group"] = div(tl.get("zugchain_wal_records_total"), walGroups)
	groups, blocks := tl.get("zugchain_store_groups_total"), tl.get("zugchain_store_blocks_total")
	l["store.syncs_per_block"] = div(groups+tl.get("zugchain_store_syncs_total"), blocks)
	l["store.blocks_per_group"] = div(blocks, groups)
	l["go.alloc_bytes_per_rec"] = div(float64(u1.alloc-u0.alloc), recs)
	l["go.gc_per_krec"] = div(1000*float64(u1.gcs-u0.gcs), recs)
}

// reportOverhead compares the window's untraced first half with its traced
// second half: CPU per record and median latency.
func reportOverhead(r *result, first, second halfStats) {
	pct := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return 100 * (b - a) / a
	}
	r.layers["trace.cpu_overhead_pct"] = pct(first.cpuPerRec, second.cpuPerRec)
	r.layers["trace.latency_overhead_pct"] = pct(first.p50, second.p50)
	r.note("tracing overhead: cpu/rec %.3f -> %.3f ms, p50 %.2f -> %.2f ms (untraced -> traced half)",
		first.cpuPerRec, second.cpuPerRec, first.p50, second.p50)
}

// halfStats is one half of a traced run's window.
type halfStats struct {
	cpuPerRec float64
	p50       float64
}

func halfOf(recs []record, from, to time.Time, budget time.Duration, cpu time.Duration) halfStats {
	a := account(recs, from, to, budget)
	p50, _ := percentile(sortedCopy(a.latencies), 0.5)
	return halfStats{cpuPerRec: perRec(ms(cpu), a.sealed), p50: p50}
}

// spanLayers reduces the traced half's spans to self time per layer per
// record, and times the transport wrapper's calls.
func spanLayers(r *result, spans *spanLog, recs int) {
	layerOf := map[string]string{
		"mvb.HandleFrame":      "self.mvb_us_per_rec",
		"core.OnBusRecord":     "self.core_us_per_rec",
		"transport.send":       "self.transport_send_us_per_rec",
		"transport.deliver":    "self.transport_deliver_us_per_rec",
		"clock.timer":          "self.clock_us_per_rec",
		"blockchain.HeadIndex": "self.blockchain_us_per_rec",
		"blockchain.Get":       "self.blockchain_us_per_rec",
		"export.Read":          "self.export_us_per_rec",
		"export.Delete":        "self.export_us_per_rec",
		"export.Checkpoint":    "self.export_us_per_rec",
		"node.New":             "self.node_us_per_rec",
		"node.Start":           "self.node_us_per_rec",
		"node.Stop":            "self.node_us_per_rec",
	}
	total := 0
	for name, st := range spans.stats() {
		total += st.n
		if key, ok := layerOf[name]; ok {
			r.layers[key] += perRec(us(st.self), recs)
		}
		switch name {
		case "transport.send":
			r.layers["transport.send_us"] = us(st.total) / float64(st.n)
		case "transport.deliver":
			r.layers["transport.deliver_us"] = us(st.total) / float64(st.n)
		}
	}
	r.layers["trace.spans"] = float64(total)
}
