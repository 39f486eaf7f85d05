// Command perfbench is ZugChain's benchmark: it runs one workload against a
// real four-replica cluster built through node.New, checks the outputs, and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) as the last line of its output. See README.md for the metrics,
// the workloads and why each was chosen.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runOpts is one invocation's settings.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for data dirs, removed at exit
	spans    *spanLog
}

type workload interface {
	run(o *runOpts) (*result, error)
}

// workloads names every workload the benchmark runs.
var workloads = map[string]workload{
	"bus-jru":           busWorkload{},
	"ordering-saturate": satWorkload{},
	"primary-failover":  busWorkload{failover: true},
	"export-catchup":    exportWorkload{},
}

// Every run writes into outDir, relative to the working directory (the
// repository root): a result file per run, the span file of a traced run,
// and scratch data dirs while it runs.
const outDir = ".bench_out"

// maxSpans bounds a traced run's in-memory span log.
const maxSpans = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one invocation, writing the report and the result line to
// stdout, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "bus-jru", "workload to run")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured window in seconds")
	trace := fl.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed N -seconds S -trace 0|1\n", strings.Join(sortedKeys(workloads), "|"))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o := &runOpts{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		work:     work,
		spans:    newSpanLog(maxSpans),
	}
	facts := hostFacts(o)
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out := bufio.NewWriter(stdout)
	printReport(out, o, facts, res)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if o.trace {
		if err := o.spans.write(base + ".spans.tsv"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
		}
	}
	line, err := resultLine(o, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeResultFile(base+".json", facts, res, line); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write result: %v\n", err)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// resultLine is the last output line: correctness, operation counts, and
// the end-to-end (or, traced, per-layer) metrics.
func resultLine(o *runOpts, res *result) ([]byte, error) {
	metrics := make(map[string]metric)
	if o.trace {
		for _, n := range layerNames {
			metrics[n] = metric{Value: res.layers[n], Unit: layerUnit(n)}
		}
	} else {
		for _, n := range e2eNames {
			m, ok := res.e2e[n]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", o.workload, n)
			}
			metrics[n] = m
		}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
		res.problem("no operation was attempted in the window")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), attempted, res.failed, metrics})
}

func printReport(w *bufio.Writer, o *runOpts, facts []namedFact, res *result) {
	fmt.Fprintf(w, "perfbench %s  seed=%d  window=%s  trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, f := range facts {
		fmt.Fprintf(w, "  %-14s %s\n", f.Name, f.Value)
	}
	fmt.Fprintf(w, "end-to-end (gated):\n")
	for _, n := range e2eNames {
		m := res.e2e[n]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "end-to-end (%s):\n", o.workload)
	for _, m := range res.extra {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if o.trace {
		fmt.Fprintf(w, "per layer:\n")
		for _, n := range layerNames {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, res.layers[n], layerUnit(n))
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "checks: %d operations attempted, %d failed\n", res.attempted, res.failed)
	if res.correct() {
		fmt.Fprintf(w, "  all output checks passed\n")
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

type namedFact struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// hostFacts stamps a result with the host and run facts it depends on.
func hostFacts(o *runOpts) []namedFact {
	return []namedFact{
		{"cpu", cpuModel()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"revision", revision()},
		{"seed", fmt.Sprint(o.seed)},
		{"link-delay", "none injected (latency is processor and fsync time)"},
		{"flush-policy", "store fsync per write group at each checkpoint; WAL fsync per append group"},
		{"timeouts", fmt.Sprintf("soft %s, hard %s, view %s", softTimeout, hardTimeout, viewTimeout)},
		{"cluster", fmt.Sprintf("n=%d f=1, block size %d", replicas, blockSize)},
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision names the code under test: the git commit when the checkout is
// a repository, else a digest of the module's Go sources.
func revision() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func writeResultFile(path string, facts []namedFact, res *result, line []byte) error {
	data, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Host     []namedFact        `json:"host"`
		Result   json.RawMessage    `json:"result"`
		Extra    []namedMetric      `json:"workload_metrics"`
		Layers   map[string]float64 `json:"layers,omitempty"`
		Notes    []string           `json:"notes"`
		Problems []string           `json:"problems"`
	}{res.workload, facts, line, res.extra, res.layers, res.notes, res.problems}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
