package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// clusterBenchReport is the schema of BENCH_cluster.json, produced by
// `make bench-cluster` (full) and `make bench-cluster-smoke` (shrunk
// sizes; it runs inside `make verify`). It prices the router hop: the
// same fixed-seed corpus detected end-to-end by a single-process
// `-shards N` runtime versus a 2-node fleet behind the front router over
// real HTTP.
type clusterBenchReport struct {
	Smoke  bool     `json:"smoke"`
	Lines  int      `json:"lines"`
	Keys   int      `json:"keys"`
	Shards int      `json:"shards"`
	Nodes  int      `json:"nodes"`
	Single benchE2E `json:"single_process"`
	Fleet  benchE2E `json:"fleet"`
	// OverheadX is single lines/s divided by fleet lines/s — how much the
	// router hop costs. The full run enforces OverheadX <= 2.
	OverheadX float64 `json:"overhead_x"`
}

// benchE2E is one end-to-end run's measurements (append → route →
// consume → detect → fan-in, drained to completion).
type benchE2E struct {
	LinesPerSec   float64 `json:"lines_per_sec"`
	WindowsScored int     `json:"windows_scored"`
	Anomalies     int     `json:"anomalies_raised"`
}

// TestBenchClusterReport measures fleet-vs-single end-to-end throughput
// and writes BENCH_cluster.json. Gated on BENCH_CLUSTER_OUT so
// `go test ./...` stays fast; BENCH_CLUSTER_SMOKE shrinks the corpus
// (and skips the overhead enforcement) for the verify gate.
func TestBenchClusterReport(t *testing.T) {
	out := os.Getenv("BENCH_CLUSTER_OUT")
	if out == "" {
		t.Skip("set BENCH_CLUSTER_OUT=path to run the cluster benchmark and write the report")
	}
	smoke := os.Getenv("BENCH_CLUSTER_SMOKE") != ""
	lines, nkeys := 40_000, 24
	if smoke {
		lines, nkeys = 3_000, 12
	}
	const shards = 4

	rep := clusterBenchReport{Smoke: smoke, Lines: lines, Keys: nkeys, Shards: shards, Nodes: 2}
	corpus := genEqLines(777, lines, eqKeys(nkeys))

	// Baseline: single-process `-shards N`.
	{
		det, interp, e := eqEnv()
		sink := &pipeline.MemorySink{}
		rt, err := shard.Open(shard.Config{
			Shards:   shards,
			Dir:      t.TempDir(),
			Pipeline: pipeline.DefaultConfig(eqHint),
			Detector: det,
			Interp:   interp,
			Embedder: e,
			Sink:     sink,
			Metrics:  obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		const batch = 512
		for i := 0; i < len(corpus); i += batch {
			end := min(i+batch, len(corpus))
			if _, err := rt.AppendBatch(corpus[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		if err := rt.Drain(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		dur := time.Since(start)
		stats := rt.Stats()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if stats.LinesCollected != lines {
			t.Fatalf("single-process collected %d of %d lines", stats.LinesCollected, lines)
		}
		rep.Single = benchE2E{
			LinesPerSec:   float64(lines) / dur.Seconds(),
			WindowsScored: stats.SequencesFormed,
			Anomalies:     stats.Anomalies,
		}
		t.Logf("single-process %d shards: %.0f lines/s", shards, rep.Single.LinesPerSec)
	}

	// Fleet: the same corpus through the front router to 2 nodes over
	// real HTTP.
	{
		root := t.TempDir()
		manifestPath := filepath.Join(root, "cluster.json")
		lnA, lnB := localListener(t), localListener(t)
		m := &Manifest{
			Epoch:  1,
			Shards: shards,
			Dir:    filepath.Join(root, "data"),
			Nodes: map[string]NodeSpec{
				"a": {Addr: lnA.Addr().String()},
				"b": {Addr: lnB.Addr().String()},
			},
			Assignments: []string{"a", "a", "b", "b"},
		}
		if err := Save(manifestPath, m); err != nil {
			t.Fatal(err)
		}
		a := startFleetNode(t, manifestPath, "a", lnA)
		b := startFleetNode(t, manifestPath, "b", lnB)
		defer a.srv.Close()
		defer b.srv.Close()
		defer a.node.Close()
		defer b.node.Close()

		r, err := NewRouter(RouterConfig{ManifestPath: manifestPath, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rsrv := httptest.NewServer(r.Handler())
		defer rsrv.Close()

		start := time.Now()
		const batch = 512
		for i := 0; i < len(corpus); i += batch {
			end := min(i+batch, len(corpus))
			resp, err := http.Post(rsrv.URL+"/ingest", "text/plain", strings.NewReader(strings.Join(corpus[i:end], "\n")))
			if err != nil {
				t.Fatal(err)
			}
			var rr shard.IngestResponse
			err = json.NewDecoder(resp.Body).Decode(&rr)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rr.Rejected != 0 {
				t.Fatalf("batch at %d: %d lines rejected", i, rr.Rejected)
			}
		}
		scored, anomalies := 0, 0
		for _, fn := range []*fleetNode{a, b} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			if err := fn.node.Drain(ctx); err != nil {
				cancel()
				t.Fatal(err)
			}
			cancel()
			stats := fn.node.Runtime().Stats()
			scored += stats.SequencesFormed
			anomalies += stats.Anomalies
		}
		dur := time.Since(start)
		rep.Fleet = benchE2E{
			LinesPerSec:   float64(lines) / dur.Seconds(),
			WindowsScored: scored,
			Anomalies:     anomalies,
		}
		t.Logf("fleet %d nodes: %.0f lines/s", rep.Nodes, rep.Fleet.LinesPerSec)
	}

	if rep.Fleet.LinesPerSec > 0 {
		rep.OverheadX = rep.Single.LinesPerSec / rep.Fleet.LinesPerSec
	}
	t.Logf("router-hop overhead: %.2fx", rep.OverheadX)
	if rep.Fleet.WindowsScored != rep.Single.WindowsScored || rep.Fleet.Anomalies != rep.Single.Anomalies {
		t.Errorf("fleet scored %d windows / %d anomalies, single-process %d / %d",
			rep.Fleet.WindowsScored, rep.Fleet.Anomalies, rep.Single.WindowsScored, rep.Single.Anomalies)
	}
	if !smoke && rep.OverheadX > 2 {
		t.Errorf("router-hop overhead %.2fx exceeds the 2x bound", rep.OverheadX)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
