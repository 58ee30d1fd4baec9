package core

import (
	"fmt"
	"testing"
	"time"

	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/repr"
	"logsynergy/internal/window"
)

// buildScenario assembles a small cross-system transfer scenario:
// BGL + Spirit as sources, Thunderbird as target.
func buildScenario(t *testing.T, interp lei.Interpreter) (sources []*repr.Dataset, train, test *repr.Dataset) {
	t.Helper()
	e := embed.New(32)
	mk := func(spec *logdata.SystemSpec, lines int, seed int64) *logdata.Sequences {
		return logdata.Build(spec, seed, float64(lines)/float64(spec.Lines), window.Default())
	}
	src1 := repr.Build(mk(logdata.BGL(), 10000, 1), interp, e)
	src2 := repr.Build(mk(logdata.Spirit(), 10000, 2), interp, e)
	tgtSeqs := mk(logdata.Thunderbird(), 12000, 3)
	trainSeqs, testSeqs := tgtSeqs.SplitTrainTest(400)
	table := repr.BuildEventTable(tgtSeqs, interp, e)
	return []*repr.Dataset{src1, src2},
		repr.BuildDataset(trainSeqs, table),
		repr.BuildDataset(testSeqs, table)
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 4
	cfg.BatchSize = 48
	return cfg
}

func TestLogSynergyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	sources, train, test := buildScenario(t, lei.NewSimLLM(lei.Config{}))
	cfg := fastConfig()
	trainer := NewTrainer(cfg, sources, train)
	stats := trainer.Train()
	if len(stats) != cfg.Epochs {
		t.Fatalf("want %d epoch stats, got %d", cfg.Epochs, len(stats))
	}
	if stats[len(stats)-1].Anomaly >= stats[0].Anomaly {
		t.Errorf("anomaly loss did not decrease: %.4f -> %.4f",
			stats[0].Anomaly, stats[len(stats)-1].Anomaly)
	}
	res := EvaluateDataset(trainer.Model, test)
	t.Logf("target F1=%.3f P=%.3f R=%.3f", res.F1, res.Precision, res.Recall)
	if res.F1 < 0.5 {
		t.Fatalf("cross-system F1 %.3f too low — transfer failed", res.F1)
	}
}

func TestWithoutSUFEStillTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	sources, train, test := buildScenario(t, lei.NewSimLLM(lei.Config{}))
	cfg := fastConfig()
	cfg.UseSUFE = false
	m := TrainModel(cfg, sources, train)
	res := EvaluateDataset(m, test)
	t.Logf("w/o SUFE F1=%.3f", res.F1)
	if res.F1 <= 0.1 {
		t.Fatalf("w/o SUFE model should still detect something, F1=%.3f", res.F1)
	}
}

// TestScoreBatchingConsistent: the batch argument only sizes the forwards;
// the scores are the same bits at any value of it.
func TestScoreBatchingConsistent(t *testing.T) {
	_, train, _ := buildScenario(t, lei.NewSimLLM(lei.Config{}))
	m := NewModel(fastConfig(), 3)
	want := m.Score(train.X, 1)
	if len(want) != train.Len() {
		t.Fatalf("%d scores, want %d", len(want), train.Len())
	}
	for _, batch := range []int{7, 64, 1000} {
		sameBits(t, fmt.Sprintf("batch %d vs batch 1", batch), m.Score(train.X, batch), want)
	}
	for _, s := range want {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

func TestDetectorReports(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	sources, train, test := buildScenario(t, lei.NewSimLLM(lei.Config{}))
	m := TrainModel(fastConfig(), sources, train)
	det := NewDetector(m, test.Table)
	det.Now = func() time.Time { return time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC) }

	// Find one test sequence of each class and check report behaviour.
	scores := m.Score(test.X, 256)
	reported, suppressed := 0, 0
	for i := 0; i < test.Len() && (reported == 0 || suppressed == 0); i++ {
		ids := sequenceIDs(test, i)
		score, rep := det.Detect(ids)
		if scores[i] > Threshold {
			if rep == nil {
				t.Fatal("high score must produce a report")
			}
			if rep.System != "Thunderbird" || len(rep.Interpretations) != len(ids) {
				t.Fatalf("malformed report: %+v", rep)
			}
			if rep.Score != score {
				t.Fatal("report score mismatch")
			}
			reported++
		} else {
			if rep != nil {
				t.Fatal("low score must not produce a report")
			}
			suppressed++
		}
	}
	if reported == 0 {
		t.Fatal("no sequence crossed the detection threshold")
	}
}

// sequenceIDs reconstructs a dataset row's event ids by nearest-neighbor
// lookup in the event table (exact, since rows are copies of table rows).
func sequenceIDs(d *repr.Dataset, row int) []int {
	tl, dim := d.SeqLen, d.Dim()
	ids := make([]int, tl)
	for j := 0; j < tl; j++ {
		vec := d.X.Data[(row*tl+j)*dim : (row*tl+j+1)*dim]
		for ev := 0; ev < d.Table.Vectors.Rows(); ev++ {
			tv := d.Table.Vectors.Data[ev*dim : (ev+1)*dim]
			same := true
			for k := range vec {
				if vec[k] != tv[k] {
					same = false
					break
				}
			}
			if same {
				ids[j] = ev
				break
			}
		}
	}
	return ids
}

func TestConfigFeatureDim(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.featureDim() != cfg.ModelDim/2 {
		t.Fatal("SUFE splits F's output into two equal halves")
	}
	cfg.UseSUFE = false
	if cfg.featureDim() != cfg.ModelDim {
		t.Fatal("without SUFE the full model dim is the feature dim")
	}
}

func TestPaperConfigMatchesSection4A4(t *testing.T) {
	c := PaperConfig()
	if c.ModelDim != 768 || c.Heads != 12 || c.FFDim != 2048 || c.Depth != 6 {
		t.Fatalf("architecture mismatch: %+v", c)
	}
	if c.LR != 1e-4 || c.BatchSize != 1024 || c.Epochs != 10 {
		t.Fatalf("training setup mismatch: %+v", c)
	}
	if c.LambdaMI != 0.01 || c.LambdaDA != 0.01 {
		t.Fatalf("lambda mismatch: %+v", c)
	}
}

func TestDetectorScoreAfterTableExtend(t *testing.T) {
	interp := lei.NewSimLLM(lei.Config{})
	e := embed.New(16)
	seqs := logdata.Build(logdata.SystemB(), 5, 0.003, window.Default())
	table := repr.BuildEventTable(seqs, interp, e)
	cfg := DefaultConfig()
	cfg.EmbedDim = 16
	m := NewModel(cfg, 2)
	det := NewDetector(m, table)

	before := table.Len()
	table.Extend(interp.Interpret("a system", "brand new template shape"), e)
	if table.Len() != before+1 {
		t.Fatal("Extend must grow the table")
	}
	ids := make([]int, 10)
	ids[3] = before // the new event id must be scorable
	score := det.ScoreSequence(ids)
	if score < 0 || score > 1 {
		t.Fatalf("score %v out of range", score)
	}
}
