package baselines

import (
	"math/rand"

	"logsynergy/internal/nn"
	"logsynergy/internal/nn/optim"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// MetaLog (Zhang et al., ICSE 2024) applies meta-learning for
// generalizable cross-system detection: each source system is a meta-task,
// and a GRU-based classifier is meta-trained so that a few gradient steps
// adapt it to a new system. This implementation uses first-order MAML
// (Reptile): for each meta-iteration it clones the meta-parameters, takes
// k inner SGD steps on one source task, and moves the meta-parameters
// toward the adapted weights; finally it fine-tunes on the target slice.
type MetaLog struct {
	// Hidden is the GRU width (paper: 2×100; CPU scale).
	Hidden int
	// InnerSteps and InnerLR control task adaptation.
	InnerSteps int
	InnerLR    float64
	// MetaIterations and MetaLR control the outer loop.
	MetaIterations int
	MetaLR         float64
	Train          trainCfg

	ps  *nn.ParamSet
	gru *nn.GRU
	fc  *nn.Linear
	rng *rand.Rand
}

// NewMetaLog returns the evaluation configuration.
func NewMetaLog() *MetaLog {
	return &MetaLog{Hidden: 32, InnerSteps: 4, InnerLR: 0.01,
		MetaIterations: 60, MetaLR: 0.5, Train: defaultTrainCfg()}
}

// Name implements Method.
func (m *MetaLog) Name() string { return "MetaLog" }

// Fit implements Method.
func (m *MetaLog) Fit(sc *Scenario) {
	m.rng = rand.New(rand.NewSource(sc.Seed + 43))
	dim := sc.Embedder.Dim
	m.ps = nn.NewParamSet()
	m.gru = nn.NewGRU(m.ps, "metalog.gru", m.rng, dim, m.Hidden)
	m.fc = nn.NewLinear(m.ps, "metalog.fc", m.rng, m.Hidden, 1)

	tasks := sc.RawSources()
	samplers := make([]*repr.BalancedSampler, len(tasks))
	for i, tk := range tasks {
		samplers[i] = repr.NewBalancedSampler(tk.Labels, m.Train.PosFraction, m.rng)
	}

	// Outer (Reptile) loop over source meta-tasks.
	for iter := 0; iter < m.MetaIterations; iter++ {
		ti := m.rng.Intn(len(tasks))
		snapshot := m.snapshot()
		for s := 0; s < m.InnerSteps; s++ {
			m.innerStep(tasks[ti], samplers[ti])
		}
		// θ ← θ0 + MetaLR·(θ_adapted − θ0)
		for i, p := range m.ps.All() {
			for j := range p.Value.Data {
				p.Value.Data[j] = snapshot[i].Data[j] + m.MetaLR*(p.Value.Data[j]-snapshot[i].Data[j])
			}
		}
	}

	// Adaptation on the target slice (few labeled samples).
	target := sc.Raw(sc.TargetTrain)
	sampler := repr.NewBalancedSampler(target.Labels, m.Train.PosFraction, m.rng)
	opt := optim.NewAdamW(m.ps, m.Train.LR)
	steps := max(target.Len()/m.Train.Batch, 1) * m.Train.Epochs
	for s := 0; s < steps; s++ {
		idx := sampler.Sample(m.Train.Batch)
		x, labels := target.Gather(idx)
		g := nn.NewGraph()
		loss := g.BCEWithLogits(m.logits(g, x), labels)
		g.Backward(loss)
		m.ps.ClipGradNorm(5)
		opt.Step()
	}
}

// innerStep is one SGD step on a task batch.
func (m *MetaLog) innerStep(task *repr.Dataset, sampler *repr.BalancedSampler) {
	idx := sampler.Sample(m.Train.Batch)
	x, labels := task.Gather(idx)
	g := nn.NewGraph()
	loss := g.BCEWithLogits(m.logits(g, x), labels)
	g.Backward(loss)
	m.ps.ClipGradNorm(5)
	for _, p := range m.ps.All() {
		for j := range p.Value.Data {
			p.Value.Data[j] -= m.InnerLR * p.Grad.Data[j]
		}
	}
	m.ps.ZeroGrad()
}

// logits builds the GRU classifier graph for one batch tensor.
func (m *MetaLog) logits(g *nn.Graph, x *tensor.Tensor) *nn.Node {
	_, last := m.gru.Forward(g, g.Const(x))
	return m.fc.Forward(g, last)
}

// snapshot deep-copies all parameter values.
func (m *MetaLog) snapshot() []*tensor.Tensor {
	out := make([]*tensor.Tensor, 0, len(m.ps.All()))
	for _, p := range m.ps.All() {
		out = append(out, p.Value.Clone())
	}
	return out
}

// Score implements Method.
func (m *MetaLog) Score(sc *Scenario) []float64 {
	return scoreRows(sc.Raw(sc.TargetTest), m.logits, sigmoidRow)
}
