// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (run with `go test -bench=. -benchmem`).
//
// Each benchmark executes its full experiment once per iteration and
// prints the paper-style table on the first iteration. Under -short the
// harness drops to the smoke scale (tiny corpora) so the whole suite
// finishes quickly; the default is the CPU scale described in DESIGN.md
// (paper ratios at 1/12.5 sample counts). Absolute numbers are compared
// to the paper in EXPERIMENTS.md; the claims are about shape (who wins,
// by roughly what factor, where trends bend).
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"logsynergy/internal/baselines"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/experiments"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// benchScale picks the experiment scale for benchmarks: the bench scale
// by default, smoke under -short, or an explicit LOGSYNERGY_SCALE
// (smoke|bench|cpu|paper).
func benchScale() experiments.Scale {
	switch os.Getenv("LOGSYNERGY_SCALE") {
	case "smoke":
		return experiments.SmokeScale()
	case "bench":
		return experiments.BenchScale()
	case "cpu":
		return experiments.CPUScale()
	case "paper":
		return experiments.PaperScale()
	}
	if testing.Short() {
		return experiments.SmokeScale()
	}
	return experiments.BenchScale()
}

// sharedLab caches corpora across benchmarks in one process.
var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func benchLab() *experiments.Lab {
	labOnce.Do(func() { lab = experiments.NewLab(benchScale()) })
	return lab
}

// benchConfig is the full training configuration (tables, Fig. 6,
// deployment, extra ablations).
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	if testing.Short() {
		cfg.Epochs = 3
	}
	return cfg
}

// fig5Config trades two epochs for wall clock on the 24-run ablation grid.
func fig5Config() core.Config {
	cfg := benchConfig()
	if !testing.Short() {
		cfg.Epochs = 8
	}
	return cfg
}

// sweepConfig is for the Fig. 4 sensitivity sweeps (many runs; only the
// relative trend matters).
func sweepConfig() core.Config {
	cfg := benchConfig()
	if !testing.Short() {
		cfg.Epochs = 6
	}
	return cfg
}

// printOnce prints an experiment rendering only on the benchmark's first
// iteration.
func printOnce(b *testing.B, i int, s string) {
	b.Helper()
	if i == 0 {
		fmt.Println(s)
	}
}

// BenchmarkTable3 regenerates Table III (dataset statistics).
func BenchmarkTable3(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		stats := l.Table3()
		printOnce(b, i, experiments.RenderTable3(stats))
	}
}

// BenchmarkTable4 regenerates Table IV (overall comparison on the public
// datasets BGL, Spirit, Thunderbird).
func BenchmarkTable4(b *testing.B) {
	l := benchLab()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Table4(cfg).Render())
	}
}

// BenchmarkTable5 regenerates Table V (overall comparison on the ISP
// datasets System A/B/C).
func BenchmarkTable5(b *testing.B) {
	l := benchLab()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Table5(cfg).Render())
	}
}

// fig4Targets picks the sweep targets: one representative per regime by
// default (high/medium/low anomaly rate), all six with
// LOGSYNERGY_FULL_SWEEPS=1 (the paper's full fan of curves), two under
// -short.
func fig4Targets() []string {
	if testing.Short() {
		return []string{"Thunderbird", "SystemC"}
	}
	if os.Getenv("LOGSYNERGY_FULL_SWEEPS") == "1" {
		return append(experiments.PublicNames(), experiments.ISPNames()...)
	}
	return []string{"BGL", "Thunderbird", "SystemC"}
}

// fig5Targets always covers all six systems (the ablation table is the
// paper's central evidence) except under -short.
func fig5Targets() []string {
	if testing.Short() {
		return []string{"Thunderbird", "SystemC"}
	}
	return append(experiments.PublicNames(), experiments.ISPNames()...)
}

// BenchmarkFig4a regenerates the λ_MI sensitivity curves.
func BenchmarkFig4a(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Fig4a(sweepConfig(), fig4Targets()).Render())
	}
}

// BenchmarkFig4b regenerates the n_s sensitivity curves.
func BenchmarkFig4b(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Fig4b(sweepConfig(), fig4Targets()).Render())
	}
}

// BenchmarkFig4c regenerates the n_t sensitivity curves.
func BenchmarkFig4c(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Fig4c(sweepConfig(), fig4Targets()).Render())
	}
}

// BenchmarkFig5 regenerates the ablation study (LEI, SUFE, transfer).
func BenchmarkFig5(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Fig5(fig5Config(), fig5Targets()).Render())
	}
}

// BenchmarkFig6 regenerates the cross-group transfer study.
func BenchmarkFig6(b *testing.B) {
	l := benchLab()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Fig6(cfg).Render())
	}
}

// BenchmarkDeployment regenerates the §VI workflow study (pattern library
// on/off, throughput, report volume).
func BenchmarkDeployment(b *testing.B) {
	l := benchLab()
	cfg := benchConfig()
	lines := 20000
	if testing.Short() {
		lines = 4000
	}
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.Deployment(cfg, "SystemB", lines).Render())
	}
}

// BenchmarkLabelNoise runs the §IV-E1 label-quality threat study:
// LogSynergy trained on corrupted labels, plus the two-operator
// annotation workflow as the realistic reference point.
func BenchmarkLabelNoise(b *testing.B) {
	l := benchLab()
	rates := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if testing.Short() {
		rates = []float64{0, 0.2}
	}
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.LabelNoise(sweepConfig(), "Thunderbird", rates).Render())
	}
}

// BenchmarkCaseStudy regenerates the Fig. 8 false-positive case study.
func BenchmarkCaseStudy(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		printOnce(b, i, l.CaseStudy().Render())
	}
}

// BenchmarkAblationOmega compares DAAN's dynamic ω against plain marginal
// alignment (a design choice DESIGN.md calls out).
func BenchmarkAblationOmega(b *testing.B) {
	l := benchLab()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sc := l.Scenario(experiments.PublicNames(), "Thunderbird", 0, 0)
		dyn := cfg
		dyn.DynamicOmega = true
		stat := cfg
		stat.DynamicOmega = false
		f1Dyn := evalLogSynergy(l, sc, dyn)
		f1Stat := evalLogSynergy(l, sc, stat)
		printOnce(b, i, fmt.Sprintf("Ablation DAAN omega: dynamic F1=%.2f%% static F1=%.2f%%", 100*f1Dyn, 100*f1Stat))
	}
}

// BenchmarkAblationDA compares the paper's DAAN adaptation against the
// classic MMD alignment it cites as the alternative (§II-A).
func BenchmarkAblationDA(b *testing.B) {
	l := benchLab()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sc := l.Scenario(experiments.PublicNames(), "Thunderbird", 0, 0)
		daanCfg := cfg
		daanCfg.DAMethod = "daan"
		mmdCfg := cfg
		mmdCfg.DAMethod = "mmd"
		noneCfg := cfg
		noneCfg.UseDA = false
		out := fmt.Sprintf("Ablation domain adaptation: DAAN F1=%.2f%% MMD F1=%.2f%% none F1=%.2f%%",
			100*evalLogSynergy(l, sc, daanCfg), 100*evalLogSynergy(l, sc, mmdCfg), 100*evalLogSynergy(l, sc, noneCfg))
		printOnce(b, i, out)
	}
}

// BenchmarkAblationEmbedDim sweeps the event-embedding width.
func BenchmarkAblationEmbedDim(b *testing.B) {
	cfg := benchConfig()
	dims := []int{16, 32, 64}
	if testing.Short() {
		dims = []int{16, 32}
	}
	for i := 0; i < b.N; i++ {
		var out string
		for _, dim := range dims {
			scale := benchScale()
			scale.EmbedDim = dim
			l := experiments.NewLab(scale)
			sc := l.Scenario(experiments.PublicNames(), "Thunderbird", 0, 0)
			f1 := evalLogSynergy(l, sc, cfg)
			out += fmt.Sprintf("embed dim %d: F1=%.2f%%\n", dim, 100*f1)
		}
		printOnce(b, i, "Ablation embedding dimension:\n"+out)
	}
}

// evalLogSynergy trains and evaluates one LogSynergy run on a scenario.
func evalLogSynergy(l *experiments.Lab, sc *baselines.Scenario, cfg core.Config) float64 {
	m := experiments.NewLogSynergy(cfg, l.Interp)
	return baselines.Evaluate(m, sc).F1
}

// ---- serial-vs-parallel compute runtime benchmarks ----
//
// These pin the parallel tensor runtime's speedup so BENCH_*.json can track
// it: run the *Serial and *Parallel4 variants of each pair and compare
// ns/op. On a multi-core host the Parallel4 variant should be ≥2× faster;
// the results are bit-identical (see internal/tensor's equivalence suite).

// scoreFixture caches an inference model and a batch of sequences for the
// batch-scoring benchmarks.
var (
	scoreOnce  sync.Once
	scoreModel *core.Model
	scoreX     *tensor.Tensor
)

func scoreFixture() (*core.Model, *tensor.Tensor) {
	scoreOnce.Do(func() {
		cfg := core.DefaultConfig()
		scoreModel = core.NewModel(cfg, 3)
		rng := rand.New(rand.NewSource(71))
		scoreX = tensor.Randn(rng, 1, 512, 10, cfg.EmbedDim)
	})
	return scoreModel, scoreX
}

func benchmarkBatchScore(b *testing.B, workers int) {
	m, x := scoreFixture()
	prev := tensor.SetParallelism(workers)
	defer tensor.SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(x, 128)
	}
}

// BenchmarkBatchScoreSerial scores 512 windows with parallel kernels off.
func BenchmarkBatchScoreSerial(b *testing.B) { benchmarkBatchScore(b, 1) }

// BenchmarkBatchScoreParallel4 scores the same 512 windows on 4 workers.
func BenchmarkBatchScoreParallel4(b *testing.B) { benchmarkBatchScore(b, 4) }

// trainFixture caches small source/target datasets for the training-step
// benchmarks.
var (
	trainOnce    sync.Once
	trainSources []*repr.Dataset
	trainTarget  *repr.Dataset
)

func trainFixture() ([]*repr.Dataset, *repr.Dataset) {
	trainOnce.Do(func() {
		interp := lei.NewSimLLM(lei.Config{})
		e := embed.New(32)
		mk := func(spec *logdata.SystemSpec, lines int, seed int64) *logdata.Sequences {
			return logdata.Build(spec, seed, float64(lines)/float64(spec.Lines), window.Default())
		}
		trainSources = []*repr.Dataset{repr.Build(mk(logdata.BGL(), 6000, 1), interp, e)}
		tgt := mk(logdata.Thunderbird(), 4000, 3)
		table := repr.BuildEventTable(tgt, interp, e)
		trainTarget = repr.BuildDataset(tgt, table)
	})
	return trainSources, trainTarget
}

func benchmarkTrainEpoch(b *testing.B, workers int) {
	sources, target := trainFixture()
	prev := tensor.SetParallelism(workers)
	defer tensor.SetParallelism(prev)
	cfg := core.DefaultConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TrainModel(cfg, sources, target)
	}
}

// BenchmarkTrainEpochSerial runs one training epoch with parallel kernels off.
func BenchmarkTrainEpochSerial(b *testing.B) { benchmarkTrainEpoch(b, 1) }

// BenchmarkTrainEpochParallel4 runs the same epoch on 4 workers.
func BenchmarkTrainEpochParallel4(b *testing.B) { benchmarkTrainEpoch(b, 4) }
