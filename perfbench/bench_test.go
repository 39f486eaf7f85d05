package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"zugchain/internal/blockchain"
)

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	// The generator stalled for 600 ms: every record went out late and all
	// were sealed together. Latency counts from each record's due time, so
	// the early ones miss the budget even though sealing itself was quick.
	t0 := time.Unix(1000, 0)
	var recs []record
	for k := 0; k < 20; k++ {
		recs = append(recs, record{due: t0.Add(time.Duration(k) * 32 * time.Millisecond), sealed: t0.Add(700 * time.Millisecond)})
	}
	a := account(recs, t0, t0.Add(time.Second), jruBudget)
	if a.attempted != 20 || a.sealed != 20 || a.failed != 0 {
		t.Fatalf("attempted %d sealed %d failed %d, want 20 20 0", a.attempted, a.sealed, a.failed)
	}
	// Due at 0..192 ms are more than 500 ms before the 700 ms seal.
	if a.late != 7 {
		t.Fatalf("late = %d, want 7", a.late)
	}
	if got := a.latencies[0]; got != 700 {
		t.Fatalf("first latency = %v ms, want 700", got)
	}
}

func TestNeverSealedCountsFailedAndLate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	recs := []record{
		{due: t0, sealed: t0.Add(100 * time.Millisecond)},
		{due: t0.Add(time.Millisecond)}, // never sealed
		{due: t0.Add(-time.Second)},     // before the window: not counted
	}
	a := account(recs, t0, t0.Add(time.Second), jruBudget)
	if a.attempted != 2 || a.failed != 1 || a.late != 1 || a.sealed != 1 {
		t.Fatalf("got %+v, want 2 attempted, 1 failed, 1 late, 1 sealed", a)
	}
	if a.failFrac() != 0.5 || a.lateFrac() != 0.5 {
		t.Fatalf("fail %v late %v, want 0.5 each", a.failFrac(), a.lateFrac())
	}
	if len(a.latencies) != 1 {
		t.Fatalf("%d latencies, want only the sealed record's", len(a.latencies))
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 100 = %v, %v; want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Fatal("p95 of 100 samples has 5 beyond it and must not be reported")
	}
	if v, q := tail(xs); q != 0.90 || v != 90 {
		t.Fatalf("tail of 100 = p%v %v, want p90", q*100, v)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if _, q := tail(big); q != 0.99 {
		t.Fatalf("tail of 1000 samples = p%v, want p99", q*100)
	}
	if _, q := tail(xs[:50]); q != 1 {
		t.Fatalf("tail of 50 samples = p%v, want the maximum", q*100)
	}
	if v, ok := percentile(xs[:3], 0.5); !ok || v != 2 {
		t.Fatalf("median of 3 = %v, %v", v, ok)
	}
}

func TestLongestGap(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	seals := []time.Time{at(0), at(300), at(1500), at(1800)}
	// The kill at 400 ms: the gap 300 -> 1500 spans it.
	if g := longestGap(seals, at(400), at(2000)); g != 1200*time.Millisecond {
		t.Fatalf("gap = %v, want 1.2s", g)
	}
	// The next kill's interval starts at 1000 ms: the 300 -> 1500 gap is
	// charged to this interval only up to 1000 ms.
	if g := longestGap(seals, at(0), at(1000)); g != 700*time.Millisecond {
		t.Fatalf("gap cut at the interval end = %v, want 700ms", g)
	}
	// Nothing sealed after 1800 ms: the outage runs to the interval end.
	if g := longestGap(seals, at(1900), at(3000)); g != 1200*time.Millisecond {
		t.Fatalf("open-ended gap = %v, want 1.2s", g)
	}
}

func TestSealObserverJoinsRecordsToBlocksByID(t *testing.T) {
	gen := newSatPayloads(7)
	bd := blockchain.NewBuilder(blockchain.Genesis(), blockSize)
	var blocks []*blockchain.Block
	for id := uint64(100); len(blocks) < 2; id++ {
		if b := bd.Add(blockchain.Entry{Seq: id, Payload: gen.payload(id)}); b != nil {
			blocks = append(blocks, b)
		}
	}
	stores := make([]*blockchain.Store, replicas)
	for i := 0; i < 3; i++ {
		s, err := blockchain.NewStore("")
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	joined := make(map[uint64]time.Time)
	obs := newSealObserver(func() []*blockchain.Store { return stores }, parseSat, func(id uint64, p []byte, at time.Time) {
		if !bytes.Equal(p, gen.payload(id)) {
			t.Errorf("record %d joined with another record's payload", id)
		}
		joined[id] = at
	})
	// Two replicas hold block 1: not yet a quorum.
	for _, s := range stores[:2] {
		if err := s.Append(blocks[0]); err != nil {
			t.Fatal(err)
		}
	}
	t1 := time.Unix(2000, 0)
	obs.poll(t1)
	if len(joined) != 0 {
		t.Fatalf("joined %d records before a quorum held their block", len(joined))
	}
	if err := stores[2].Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	t2 := t1.Add(time.Second)
	obs.poll(t2)
	if len(joined) != blockSize {
		t.Fatalf("joined %d records, want the %d of block 1", len(joined), blockSize)
	}
	for id := uint64(100); id < 100+blockSize; id++ {
		if !joined[id].Equal(t2) {
			t.Fatalf("record %d sealed at %v, want the quorum poll %v", id, joined[id], t2)
		}
	}
	if obs.quorumHeadIndex() != 1 {
		t.Fatalf("quorum head %d, want 1", obs.quorumHeadIndex())
	}
	// A fourth replica catching up later does not seal the block again.
	stores[3], _ = blockchain.NewStore("")
	if err := stores[3].Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	obs.poll(t2.Add(time.Second))
	if !joined[100].Equal(t2) || len(obs.seals()) != 1 {
		t.Fatal("a late replica re-sealed block 1")
	}
}

// benchmarkJSON reads the metric names the repository's BENCHMARK.json
// declares.
func benchmarkJSON(t *testing.T) (e2e, layers, wls []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name string }       `json:"end_to_end"`
		Layers    []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.E2E {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.Layers {
		layers = append(layers, m.Name)
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("BENCHMARK.json gives %s the unit %q, the benchmark prints %q", m.Name, m.Unit, u)
		}
	}
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	return e2e, layers, wls
}

func sameSet(a, b []string) bool {
	x, y := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	return strings.Join(x, ",") == strings.Join(y, ",")
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	e2e, layers, wls := benchmarkJSON(t)
	if !sameSet(e2e, e2eNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, e2eNames)
	}
	if !sameSet(layers, layerNames) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's %d per-layer metrics", len(layerNames))
	}
	for _, w := range wls {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w)
		}
	}
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload briefly, timed
// and traced, and checks the result line carries every metric name.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code := run([]string{"-workload", name, "-seed", "3", "-seconds", "1", "-trace", trace}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: exit %d, last line not a result: %v\n%s", name, trace, code, err, out.String())
			}
			if code != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct %v, attempted %d\n%s", name, trace, code, res.Correct, res.Attempted, out.String())
			}
			want := e2eNames
			if trace == "1" {
				want = layerNames
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			if !sameSet(got, want) {
				t.Errorf("%s trace=%s: metrics %v, want %v", name, trace, got, want)
			}
			if trace == "0" {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
					}
				}
			}
		}
	}
	_ = os.RemoveAll(outDir)
}
