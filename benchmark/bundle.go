package main

import (
	"runtime"
	"time"

	"logsynergy/benchmark/workload"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// targetHint is the LEI prompt context of the serving workloads' system.
var targetHint = repr.SystemHint("Thunderbird")

// trainData is a transfer-training run's model-ready input.
type trainData struct {
	sources []*repr.Dataset
	target  *repr.Dataset
}

// buildTrainData generates the seeded corpora and runs the offline
// representation stage (parse → LEI → embed) over them.
func buildTrainData(seed int64, sz trainSize) trainData {
	ts := workload.Training(seed, sz.sourceLines, sz.targetLines)
	interp := lei.NewSimLLM(lei.Config{})
	e := embed.New(core.DefaultConfig().EmbedDim)
	target := repr.BuildDataset(ts.Target, repr.BuildEventTable(ts.Target, interp, e))
	return trainData{sources: []*repr.Dataset{repr.Build(ts.Source, interp, e)}, target: target}
}

// trainRun is one timed core.TrainModel call.
type trainRun struct {
	model     *core.Model
	wall      time.Duration
	sequences int // training sequences consumed: steps × batch size
	steps     int
	mallocs   uint64
}

func (r trainRun) seqPerS() float64 { return float64(r.sequences) / r.wall.Seconds() }

// train runs core.TrainModel at the default architecture for the sizing's
// fixed epochs.
func train(d trainData, sz trainSize) trainRun {
	cfg := core.DefaultConfig()
	cfg.Epochs = sz.epochs
	cfg.LR = sz.lr
	samples := d.target.Len()
	for _, s := range d.sources {
		samples += s.Len()
	}
	steps := max(samples/cfg.BatchSize, 1) * cfg.Epochs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m := core.TrainModel(cfg, d.sources, d.target)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return trainRun{model: m, wall: wall, sequences: steps * cfg.BatchSize, steps: steps, mallocs: after.Mallocs - before.Mallocs}
}

// env is what one serving phase scores with: the trained model over a
// fresh copy of the offline event table, a fresh embedder, and the
// simulated LLM.
type env struct {
	model *core.Model
	table *repr.EventTable // offline table the phases clone; empty for onboard
}

func (e env) detector() *core.Detector {
	return core.NewDetector(e.model, e.table.Clone())
}

// emptyTable is the onboard workload's event table: a brand-new system has
// no offline templates.
func emptyTable(dim int) *repr.EventTable {
	return &repr.EventTable{System: "NewSystem", Dim: dim, Vectors: tensor.New(0, dim)}
}
