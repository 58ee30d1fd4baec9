// Production: the §VI deployment workflow end to end — offline training,
// then a live stream through collection → write-ahead log →
// pattern-library detection → commit log → report routing, with workflow
// statistics and the alert history read back.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/window"
)

// stream is the id the collector stamps on every SystemB line.
const stream = "systemb"

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
	// A collector stamps every line with its stream id, the first token;
	// the parser sees the stamp, so the history is stamped the same way.
	for i := range offline.Lines {
		offline.Lines[i].Message = stream + " " + offline.Lines[i].Message
	}
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
	// It runs the way `logsynergy serve -broker-dir` does: a shard.Runtime
	// over a write-ahead log, committing every alert to its commit log and
	// delivering it from there, here to the SMS gateway.
	fmt.Println("online: streaming 20,000 fresh SystemB lines through the runtime...")
	root := filepath.Join(os.TempDir(), "logsynergy-production")
	check("runtime root", os.RemoveAll(root))
	sms := &smsSink{}
	rt, err := shard.Open(shard.Config{
		Dir:      root,
		Broker:   broker.Config{DisableRetention: true}, // keep the whole alert history
		Pipeline: pipeline.DefaultConfig(repr.SystemHint("SystemB")),
		Detector: det,
		Interp:   interp,
		Embedder: embedder,
		Sink:     sms,
		Metrics:  obs.NewRegistry(),
	})
	check("runtime", err)
	live := logdata.Generate(spec, 99, 20000).Messages()
	for i := range live {
		live[i] = stream + " " + live[i]
	}

	start := time.Now()
	for i := 0; i < len(live); i += 500 {
		_, err := rt.AppendBatch(live[i:min(i+500, len(live))])
		check("ingest", err)
	}
	check("drain", rt.Drain(context.Background()))
	elapsed := time.Since(start)
	stats, snap := rt.Stats(), rt.Snapshot()
	check("close", rt.Close())

	fmt.Printf("\nworkflow statistics (%s):\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  collected lines:        %d (%.0f lines/sec)\n",
		stats.LinesCollected, float64(stats.LinesCollected)/elapsed.Seconds())
	fmt.Printf("  sequences formed:       %d\n", stats.SequencesFormed)
	fmt.Printf("  pattern library:        %d hits / %d misses (%.1f%% hit rate, %d patterns)\n",
		stats.PatternHits, stats.PatternMisses,
		100*float64(stats.PatternHits)/float64(stats.PatternHits+stats.PatternMisses),
		snap.Gauges["pipeline.pattern_library_size"])
	fmt.Printf("  new templates online:   %d\n", stats.NewEvents)
	fmt.Printf("  anomaly reports sent:   %d (%d SMS delivered)\n", stats.Anomalies, sms.delivered)

	// The commit logs are the durable alert history for the post-incident
	// workflow; `alerts -root DIR list` reads them the same way.
	var history, high int
	check("alert history", shard.ReadAlerts(root, func(a shard.Alert) error {
		history++
		if a.Report.Score >= 0.9 {
			high++
		}
		return nil
	}))
	fmt.Printf("  alert history:          %d alerts (%d with score ≥ 0.9): alerts -root %s list\n", history, high, root)

	// The same run as the observability layer sees it — what `logsynergy
	// serve` exports at /metrics for a long-running deployment.
	fmt.Println("\n/metrics view of this run:")
	snap.WriteText(os.Stdout)
	if lat, ok := snap.Histograms["pipeline.detect_batch_seconds"]; ok && lat.Count > 0 {
		fmt.Printf("mean detect-batch latency: %.3fms\n", 1000*lat.Mean())
	}
}

// check ends the example at a failed step.
func check(step string, err error) {
	if err != nil {
		fmt.Println(step+":", err)
		os.Exit(1)
	}
}
