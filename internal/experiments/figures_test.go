package experiments

import (
	"strings"
	"testing"

	"logsynergy/internal/core"
)

func TestSparseTestSizing(t *testing.T) {
	lab := NewLab(CPUScale())
	if lab.testSeqsFor("SystemA") <= lab.testSeqsFor("Thunderbird") {
		t.Fatal("sparse targets must get enlarged test slices")
	}
	noFactor := CPUScale()
	noFactor.SparseTestFactor = 0
	lab2 := NewLab(noFactor)
	if lab2.testSeqsFor("SystemA") != noFactor.TestSeqs {
		t.Fatal("factor 0 must mean no enlargement")
	}
}

func TestSweepStepsShape(t *testing.T) {
	if len(sweepSteps) < 5 {
		t.Fatal("sweeps need enough points to show saturation")
	}
	for i := 1; i < len(sweepSteps); i++ {
		if sweepSteps[i] <= sweepSteps[i-1] {
			t.Fatal("sweep steps must increase")
		}
	}
	if sweepSteps[0] != 1 || sweepSteps[len(sweepSteps)-1] != 8 {
		t.Fatalf("sweep must span 0.2x..1.6x, got %v", sweepSteps)
	}
}

func TestSweepRender(t *testing.T) {
	s := &Sweep{
		Title:  "test",
		XLabel: "x",
		Curves: []SweepResult{
			{Target: "A", Points: []SweepPoint{{X: 1, F1: 0.5}, {X: 2, F1: 0.7}}},
			{Target: "B", Points: []SweepPoint{{X: 1, F1: 0.1}, {X: 2, F1: 0.2}}},
		},
	}
	out := s.Render()
	if !strings.Contains(out, "A") || !strings.Contains(out, "70.00") {
		t.Fatalf("render: %s", out)
	}
}

func TestFig6SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	lab := NewLab(SmokeScale())
	cfg := core.DefaultConfig()
	cfg.Epochs = 3
	ct := lab.Fig6(cfg)
	if len(ct.Cells) != 4 {
		t.Fatalf("Fig6 must produce 4 transfers, got %d", len(ct.Cells))
	}
	pairs := map[string]string{
		"BGL": "SystemB", "Spirit": "SystemC", "SystemB": "BGL", "SystemC": "Spirit",
	}
	for _, c := range ct.Cells {
		if pairs[c.Source] != c.Target {
			t.Fatalf("unexpected pair %s->%s", c.Source, c.Target)
		}
		if c.F1 < 0 || c.F1 > 1 {
			t.Fatalf("F1 out of range: %v", c.F1)
		}
	}
	if !strings.Contains(ct.Render(), "BGL") {
		t.Fatal("render incomplete")
	}
}

func TestLabelNoiseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	lab := NewLab(SmokeScale())
	cfg := core.DefaultConfig()
	cfg.Epochs = 3
	res := lab.LabelNoise(cfg, "Thunderbird", []float64{0, 0.4})
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	if res.WorkflowErrorRate <= 0 || res.WorkflowErrorRate > 0.2 {
		t.Fatalf("workflow error rate %.3f implausible", res.WorkflowErrorRate)
	}
	if !strings.Contains(res.Render(), "noise rate") {
		t.Fatal("render incomplete")
	}
}

// The extra ablations print the lines the recorded run quotes.
func TestAblationRenders(t *testing.T) {
	da := &ArmComparison{Title: "Ablation domain adaptation", Arms: []Arm{{"DAAN", 0.9}, {"MMD", 0.85}, {"none", 0.5}}}
	if got, want := da.Render(), "Ablation domain adaptation: DAAN F1=90.00% MMD F1=85.00% none F1=50.00%"; got != want {
		t.Errorf("ArmComparison.Render() = %q, want %q", got, want)
	}
	dims := &EmbedDimResult{Dims: []int{16, 32}, F1: []float64{0.25, 0.5}}
	if got, want := dims.Render(), "Ablation embedding dimension:\nembed dim 16: F1=25.00%\nembed dim 32: F1=50.00%\n"; got != want {
		t.Errorf("EmbedDimResult.Render() = %q, want %q", got, want)
	}
}
