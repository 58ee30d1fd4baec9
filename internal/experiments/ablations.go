package experiments

import (
	"fmt"
	"strings"

	"logsynergy/internal/core"
)

// Arm is one configuration of an extra ablation and the F1 it reached.
type Arm struct {
	Name string
	F1   float64
}

// ArmComparison is an extra ablation (a design choice, not a paper
// figure): LogSynergy trained under a few configurations on one target.
type ArmComparison struct {
	Title string
	Arms  []Arm
}

// Render prints the comparison on one line.
func (a *ArmComparison) Render() string {
	var b strings.Builder
	b.WriteString(a.Title + ":")
	for _, arm := range a.Arms {
		fmt.Fprintf(&b, " %s F1=%.2f%%", arm.Name, 100*arm.F1)
	}
	return b.String()
}

// OmegaAblation compares DAAN's dynamic ω against static marginal
// alignment on the target's standard scenario.
func (l *Lab) OmegaAblation(cfg core.Config, target string) *ArmComparison {
	sc := l.Scenario(GroupFor(target), target, 0, 0)
	dynamic, static := cfg, cfg
	dynamic.DynamicOmega = true
	static.DynamicOmega = false
	return &ArmComparison{Title: "Ablation DAAN omega", Arms: []Arm{
		{"dynamic", l.trainAndScore(sc, dynamic)},
		{"static", l.trainAndScore(sc, static)},
	}}
}

// DAAblation compares the paper's DAAN adaptation against the classic MMD
// alignment it cites as the alternative (§II-A) and against none, on the
// target's standard scenario.
func (l *Lab) DAAblation(cfg core.Config, target string) *ArmComparison {
	sc := l.Scenario(GroupFor(target), target, 0, 0)
	daan, mmd, none := cfg, cfg, cfg
	daan.DAMethod = "daan"
	mmd.DAMethod = "mmd"
	none.UseDA = false
	return &ArmComparison{Title: "Ablation domain adaptation", Arms: []Arm{
		{"DAAN", l.trainAndScore(sc, daan)},
		{"MMD", l.trainAndScore(sc, mmd)},
		{"none", l.trainAndScore(sc, none)},
	}}
}

// EmbedDimResult is the event-embedding width ablation.
type EmbedDimResult struct {
	Dims []int
	F1   []float64
}

// Render prints one line per width.
func (r *EmbedDimResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation embedding dimension:\n")
	for i, dim := range r.Dims {
		fmt.Fprintf(&b, "embed dim %d: F1=%.2f%%\n", dim, 100*r.F1[i])
	}
	return b.String()
}

// EmbedDimAblation sweeps the event-embedding width. Each width gets a lab
// of its own, at this lab's scale with only EmbedDim changed.
func (l *Lab) EmbedDimAblation(cfg core.Config, target string, dims []int) *EmbedDimResult {
	out := &EmbedDimResult{Dims: dims}
	for _, dim := range dims {
		scale := l.Scale
		scale.EmbedDim = dim
		sub := NewLab(scale)
		out.F1 = append(out.F1, sub.trainAndScore(sub.Scenario(GroupFor(target), target, 0, 0), cfg))
	}
	return out
}
