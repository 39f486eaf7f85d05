package node

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zugchain/internal/obsv"
)

// benchmarkSeries are the series the repository benchmark (perfbench/) reads
// from the registry; renaming one silently zeroes a per-layer metric.
var benchmarkSeries = []string{
	"zugchain_batch_flushes_total",
	"zugchain_batch_records_total",
	"zugchain_batch_wait_max_seconds",
	"zugchain_core_duplicates_total",
	"zugchain_crypto_batched_sigs_total",
	"zugchain_crypto_cache_hits_total",
	"zugchain_crypto_cache_misses_total",
	"zugchain_crypto_scalar_verifies_total",
	"zugchain_net_drops_total",
	"zugchain_net_frames_total",
	"zugchain_net_queue_peak",
	"zugchain_net_write_ops_total",
	"zugchain_pool_queue_peak",
	"zugchain_pool_task_max_seconds",
	"zugchain_store_blocks_total",
	"zugchain_store_groups_total",
	"zugchain_store_syncs_total",
	"zugchain_wal_bytes_total",
	"zugchain_wal_groups_total",
	"zugchain_wal_records_total",
}

// TestMetricsGolden pins the /metrics surface of a disk-backed node with
// the WAL on, over the in-process transport: every series name with its
// # HELP and # TYPE lines, in exposition order. Values are not pinned.
// After an intended rename, paste the printed header block into the golden
// file by hand.
func TestMetricsGolden(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.DataDir = t.TempDir() + "/" + string(rune('a'+cfg.ID))
	}, nil)

	srv := httptest.NewServer(obsv.Handler(c.nodes[0].Obs()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line + "\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics headers differ from %s\ngot:\n%s", path, got.String())
	}
	for _, name := range benchmarkSeries {
		if !strings.Contains(string(want), "# TYPE "+name+" ") {
			t.Errorf("golden file lacks benchmark series %s", name)
		}
	}
}
