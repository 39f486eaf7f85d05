// Package obsv is ZugChain's unified observability layer: a metrics
// registry every counter family self-registers into, bounded log-bucketed
// latency histograms, per-record lifecycle tracing through the ordering
// pipeline, a consensus event journal, an HTTP export server (Prometheus
// text, JSON status, pprof), and the shared stats reporter the daemons
// print through. Everything on a hot path is atomic counters and ring
// buffers; nothing here grows with the number of records ordered.
package obsv

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"zugchain/internal/metrics"
)

// MetricKind distinguishes how an exported series behaves.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota // monotonically increasing
	KindGauge                     // instantaneous value
)

// Metric is one exported sample. Name must be a valid Prometheus metric
// name (snake_case, typically prefixed zugchain_); Labels, when non-empty,
// is the label body without braces, e.g. `phase="commit"`.
type Metric struct {
	Name   string
	Help   string
	Kind   MetricKind
	Labels string
	Value  float64
}

// Source produces a family's current samples. Sources must be safe to call
// concurrently (all counter families snapshot atomics, so this is free).
type Source func() []Metric

// Registry maps family names to snapshot functions. Counter families
// self-register once at wiring time; Gather and WritePrometheus then pull a
// consistent point-in-time view on every scrape. Registering a name again
// replaces the previous source (a restarted subsystem re-registers). All
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	order  []string
	srcs   map[string]Source
	hists  map[string]*histEntry
	horder []string
}

type histEntry struct {
	help string
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		srcs:  make(map[string]Source),
		hists: make(map[string]*histEntry),
	}
}

// Register adds (or replaces) a named source.
func (r *Registry) Register(name string, src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.srcs[name]; !exists {
		r.order = append(r.order, name)
	}
	r.srcs[name] = src
}

// RegisterFamily adds (or replaces) the named source for a counter family:
// family points to a struct whose exported metrics.Counter and
// metrics.Gauge fields carry their series in tags, e.g.
//
//	Drops metrics.Counter `metric:"zugchain_net_drops_total" help:"Frames dropped"`
//
// A gauge tagged `unit:"ns"` holds nanoseconds and is exported in seconds.
// Untagged fields are skipped. The tags are read once per family type;
// scrapes only load the handles. A malformed family is a wiring bug and
// panics.
func (r *Registry) RegisterFamily(name string, family any) {
	v := reflect.ValueOf(family)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obsv: family %q is %T, want a non-nil struct pointer", name, family))
	}
	v = v.Elem()
	plan := familyPlan(v.Type())
	handles := make([]any, len(plan)) // *metrics.Counter or *metrics.Gauge
	for i, f := range plan {
		handles[i] = v.Field(f.index).Addr().Interface()
	}
	r.Register(name, func() []Metric {
		out := make([]Metric, len(plan))
		for i, f := range plan {
			out[i] = f.m
			switch h := handles[i].(type) {
			case *metrics.Counter:
				out[i].Value = float64(h.Load())
			case *metrics.Gauge:
				if f.ns {
					out[i].Value = time.Duration(h.Load()).Seconds()
				} else {
					out[i].Value = float64(h.Load())
				}
			}
		}
		return out
	})
}

// familyField is one exported series of a family type: the handle's field
// index, the series' name, help and kind, and whether it holds nanoseconds.
type familyField struct {
	index int
	m     Metric
	ns    bool
}

// familyPlans caches each family type's fields: every node registers the
// same families, and walking the tags costs more than building the node's
// other sources together.
var familyPlans sync.Map // reflect.Type -> []familyField

var (
	counterType = reflect.TypeOf(metrics.Counter{})
	gaugeType   = reflect.TypeOf(metrics.Gauge{})
)

func familyPlan(t reflect.Type) []familyField {
	if p, ok := familyPlans.Load(t); ok {
		return p.([]familyField)
	}
	var plan []familyField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		series, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		ff := familyField{index: i, m: Metric{Name: series, Help: f.Tag.Get("help")}}
		switch {
		case !f.IsExported():
			panic(fmt.Sprintf("obsv: %s.%s is tagged but unexported", t, f.Name))
		case f.Type == gaugeType:
			ff.m.Kind = KindGauge
			ff.ns = f.Tag.Get("unit") == "ns"
		case f.Type != counterType:
			panic(fmt.Sprintf("obsv: %s.%s is %s, want metrics.Counter or metrics.Gauge", t, f.Name, f.Type))
		}
		plan = append(plan, ff)
	}
	familyPlans.Store(t, plan)
	return plan
}

// registerRuntime registers Go runtime gauges (the paper's memory proxy,
// Fig 7) plus goroutine count.
func registerRuntime(r *Registry) {
	r.Register("runtime", func() []Metric {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return []Metric{
			{Name: "zugchain_go_heap_alloc_bytes", Help: "Live heap bytes", Kind: KindGauge, Value: float64(ms.HeapAlloc)},
			{Name: "zugchain_go_total_alloc_bytes", Help: "Cumulative heap bytes allocated", Value: float64(ms.TotalAlloc)},
			{Name: "zugchain_go_gc_total", Help: "Completed GC cycles", Value: float64(ms.NumGC)},
			{Name: "zugchain_go_goroutines", Help: "Live goroutines", Kind: KindGauge, Value: float64(runtime.NumGoroutine())},
		}
	})
}

// RegisterHistogram adds (or replaces) a named histogram. name is the
// Prometheus base name; the exporter derives _bucket/_sum/_count series and
// the status/summary paths can read quantiles from it.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.hists[name]; !exists {
		r.horder = append(r.horder, name)
	}
	r.hists[name] = &histEntry{help: help, h: h}
}

// Sources returns the registered source names in registration order.
func (r *Registry) Sources() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Gather snapshots every source, in registration order.
func (r *Registry) Gather() []Metric {
	r.mu.RLock()
	srcs := make([]Source, 0, len(r.order))
	for _, name := range r.order {
		srcs = append(srcs, r.srcs[name])
	}
	r.mu.RUnlock()
	var out []Metric
	for _, src := range srcs {
		out = append(out, src()...)
	}
	return out
}

// Values flattens Gather into name{labels} -> value, the form the shared
// stats reporter reads.
func (r *Registry) Values() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.Gather() {
		key := m.Name
		if m.Labels != "" {
			key += "{" + m.Labels + "}"
		}
		out[key] = m.Value
	}
	return out
}

// Histogram returns the snapshot of a registered histogram, and whether the
// name is known.
func (r *Registry) Histogram(name string) (HistSnapshot, bool) {
	r.mu.RLock()
	e, ok := r.hists[name]
	r.mu.RUnlock()
	if !ok {
		return HistSnapshot{}, false
	}
	return e.h.Snapshot(), true
}

// Histograms returns the registered histogram names in registration order.
func (r *Registry) Histograms() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.horder...)
}

// WritePrometheus renders every source and histogram in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	metrics := r.Gather()

	// One HELP/TYPE header per metric name, covering all its label
	// variants; variants stay in gather order under the header.
	seen := make(map[string]bool)
	var names []string
	byName := make(map[string][]Metric)
	for _, m := range metrics {
		if !seen[m.Name] {
			seen[m.Name] = true
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	for _, name := range names {
		ms := byName[name]
		if ms[0].Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, sanitizeHelp(ms[0].Help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, ms[0].Kind.promType())
		for _, m := range ms {
			if m.Labels != "" {
				fmt.Fprintf(w, "%s{%s} %v\n", m.Name, m.Labels, m.Value)
			} else {
				fmt.Fprintf(w, "%s %v\n", m.Name, m.Value)
			}
		}
	}

	r.mu.RLock()
	horder := append([]string(nil), r.horder...)
	hists := make(map[string]*histEntry, len(horder))
	for _, n := range horder {
		hists[n] = r.hists[n]
	}
	r.mu.RUnlock()
	for _, name := range horder {
		e := hists[name]
		s := e.h.Snapshot()
		if e.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, sanitizeHelp(e.help))
		}
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		for _, b := range s.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%v\"} %d\n", name, b.Upper.Seconds(), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(w, "%s_sum %v\n", name, s.Sum.Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}
}

func (k MetricKind) promType() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

func sanitizeHelp(s string) string {
	return strings.NewReplacer("\n", " ", "\\", `\\`).Replace(s)
}

// sortedKeys is a tiny helper for deterministic JSON/status output.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
