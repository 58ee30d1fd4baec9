// Production: the §VI deployment workflow end to end — offline training,
// then a live stream through collection → pattern-library detection →
// report routing, with workflow statistics.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"logsynergy/internal/alertstore"
	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/window"
)

// smsSink mimics the paper's SMS/email alert channel.
type smsSink struct{ delivered int }

func (s *smsSink) Notify(r *core.Report) {
	s.delivered++
	if s.delivered <= 3 {
		fmt.Printf("[SMS to on-call] %s anomaly score=%.2f first-event=%q\n",
			r.System, r.Score, r.Interpretations[0])
	}
}

func main() {
	interp := lei.NewSimLLM(lei.Config{})
	embedder := embed.New(32)

	// ---- Offline phase (§III): train a model for SystemB. ----
	fmt.Println("offline: training the SystemB model from SystemA + SystemC history...")
	spec := logdata.SystemB()
	parser := drain.NewDefault()
	offline := logdata.Generate(spec, 1, 12000)
	parsed := logdata.Parse(offline, parser)
	targetSeqs := parsed.Windows(window.Default())
	train, _ := targetSeqs.SplitTrainTest(400)

	sources := []*repr.Dataset{
		repr.Build(logdata.Build(logdata.SystemA(), 2, 0.01, window.Default()).Head(4000), interp, embedder),
		repr.Build(logdata.Build(logdata.SystemC(), 3, 0.03, window.Default()).Head(4000), interp, embedder),
	}
	table := repr.BuildEventTable(train, interp, embedder)
	model := core.TrainModel(core.DefaultConfig(), sources, repr.BuildDataset(train, table))
	det := core.NewDetector(model, table)

	// ---- Online phase (§VI): stream fresh traffic. ----
	fmt.Println("online: streaming 20,000 fresh SystemB lines through the pipeline...")
	live := logdata.Generate(spec, 99, 20000)
	sms := &smsSink{}
	storePath := filepath.Join(os.TempDir(), "logsynergy-alerts.log")
	os.Remove(storePath)
	store, err := alertstore.Open(storePath)
	if err != nil {
		fmt.Println("alert store:", err)
		return
	}
	defer store.Close()
	cfg := pipeline.DefaultConfig(repr.SystemHint("SystemB"))
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	p := pipeline.New(cfg, parser, det, interp, embedder, sms, alertstore.NewSink(store))

	start := time.Now()
	stats := p.Run(context.Background(), pipeline.NewSliceSource(live.Messages()))
	elapsed := time.Since(start)

	fmt.Printf("\nworkflow statistics (%s):\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  collected lines:        %d (%.0f lines/sec)\n",
		stats.LinesCollected, float64(stats.LinesCollected)/elapsed.Seconds())
	fmt.Printf("  sequences formed:       %d\n", stats.SequencesFormed)
	fmt.Printf("  pattern library:        %d hits / %d misses (%.1f%% hit rate, %d patterns)\n",
		stats.PatternHits, stats.PatternMisses,
		100*float64(stats.PatternHits)/float64(stats.PatternHits+stats.PatternMisses),
		p.Library().Size())
	fmt.Printf("  new templates online:   %d\n", stats.NewEvents)
	fmt.Printf("  anomaly reports sent:   %d (%d SMS delivered)\n", stats.Anomalies, sms.delivered)

	// The durable alert history supports the post-incident workflow.
	high := store.Find(alertstore.Query{MinScore: 0.9})
	fmt.Printf("  alert store:            %d records at %s (%d with score ≥ 0.9)\n",
		store.Len(), storePath, len(high))

	// The same run as the observability layer sees it — what `logsynergy
	// serve` exports at /metrics for a long-running deployment.
	fmt.Println("\n/metrics view of this run:")
	reg.WriteText(os.Stdout)
	if lat, ok := reg.Snapshot().Histograms["pipeline.detect_batch_seconds"]; ok && lat.Count > 0 {
		fmt.Printf("mean detect-batch latency: %.3fms\n", 1000*lat.Mean())
	}
}
