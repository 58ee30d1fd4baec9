package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// shardBenchReport is the schema of BENCH_shard.json, produced by
// `make bench-shard` (full) and `make bench-shard-smoke` (shrunk sizes;
// it runs inside `make verify`). One row per shard count: end-to-end
// detection throughput (append → route → consume → parse → interpret →
// embed → detect → fan-in) plus how well the shared caches deduplicated
// cross-shard work.
type shardBenchReport struct {
	Smoke bool            `json:"smoke"`
	Lines int             `json:"lines"`
	Keys  int             `json:"keys"`
	Runs  []shardBenchRun `json:"runs"`
}

// shardBenchRun is one shard count's measurements.
type shardBenchRun struct {
	Shards          int     `json:"shards"`
	LinesPerSec     float64 `json:"lines_per_sec"`
	SpeedupVs1      float64 `json:"speedup_vs_1"`
	InterpHitRate   float64 `json:"interp_cache_hit_rate"`
	InterpRendered  int64   `json:"interp_rendered"`
	EmbedCacheHits  uint64  `json:"embed_cache_hits"`
	WindowsScored   int     `json:"windows_scored"`
	AnomaliesRaised int     `json:"anomalies_raised"`
}

// TestBenchShardReport measures sharded end-to-end throughput at 1, 2,
// 4 and 8 shards over identical fixed-seed keyed traffic and writes
// BENCH_shard.json. Gated on BENCH_SHARD_OUT so `go test ./...` stays
// fast; BENCH_SHARD_SMOKE shrinks the corpus for the verify gate.
func TestBenchShardReport(t *testing.T) {
	out := os.Getenv("BENCH_SHARD_OUT")
	if out == "" {
		t.Skip("set BENCH_SHARD_OUT=path to run the shard benchmark and write the report")
	}
	smoke := os.Getenv("BENCH_SHARD_SMOKE") != ""
	lines, nkeys := 60_000, 32
	if smoke {
		lines, nkeys = 4_000, 16
	}

	var rep shardBenchReport
	rep.Smoke = smoke
	rep.Lines = lines
	rep.Keys = nkeys
	corpus := genEqLines(1234, lines, eqKeys(nkeys))

	for _, shards := range []int{1, 2, 4, 8} {
		det, interp, e := eqEnv()
		sink := &pipeline.MemorySink{}
		rt, err := Open(Config{
			Shards:   shards,
			Dir:      t.TempDir(),
			Pipeline: pipeline.DefaultConfig(eqHint),
			Detector: det,
			Interp:   interp,
			Embedder: e,
			Sink:     sink,
			Metrics:  obs.NewRegistry(),
			Broker:   broker.Config{Fsync: broker.FsyncInterval, MaxBacklogBytes: -1},
		})
		if err != nil {
			t.Fatal(err)
		}

		start := time.Now()
		const batch = 512
		for i := 0; i < len(corpus); i += batch {
			end := i + batch
			if end > len(corpus) {
				end = len(corpus)
			}
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
		if stats.LinesCollected != lines {
			t.Fatalf("%d shards collected %d of %d lines", shards, stats.LinesCollected, lines)
		}
		hits, misses, waits := rt.Cache().Stats()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}

		var run shardBenchRun
		run.Shards = shards
		run.LinesPerSec = float64(lines) / dur.Seconds()
		if total := hits + misses + waits; total > 0 {
			run.InterpHitRate = float64(hits+waits) / float64(total)
		}
		run.InterpRendered = misses
		run.EmbedCacheHits = e.TextCacheHits()
		run.WindowsScored = stats.SequencesFormed
		run.AnomaliesRaised = stats.Anomalies
		if len(rep.Runs) > 0 {
			run.SpeedupVs1 = run.LinesPerSec / rep.Runs[0].LinesPerSec
		} else {
			run.SpeedupVs1 = 1
		}
		rep.Runs = append(rep.Runs, run)

		t.Logf("%d shards: %.0f lines/s (%.2fx vs 1), interp hit rate %.3f (%d rendered), %d embed cache hits",
			shards, run.LinesPerSec, run.SpeedupVs1, run.InterpHitRate, run.InterpRendered, run.EmbedCacheHits)

		// The shared singleflight cache must have deduplicated renders
		// across shards: one render per distinct template, regardless of
		// shard count.
		if misses != int64(len(eqBodies)) {
			t.Errorf("%d shards rendered %d templates, want %d", shards, misses, len(eqBodies))
		}
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
