package baselines

import (
	"math/rand"

	"logsynergy/internal/nn"
	"logsynergy/internal/nn/optim"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// PreLog (Le & Zhang, SIGMOD 2024) pre-trains a sequence encoder on large
// unlabeled log corpora and adapts it to downstream tasks with prompt
// tuning. Under the paper's protocol it pre-trains on the source systems'
// samples and prompt-tunes on the target slice. This implementation
// pre-trains a transformer encoder with masked-event reconstruction
// (predict the embedding of a masked event from its context), then freezes
// the encoder and trains only a small head — the prompt-tuning analogue:
// very few trainable parameters adapt a frozen pre-trained model.
type PreLog struct {
	ModelDim  int
	Heads     int
	FFDim     int
	Depth     int
	MaskProb  float64
	PreEpochs int
	Train     trainCfg

	ps    *nn.ParamSet
	enc   *nn.TransformerEncoder
	recon *nn.Linear
	head  *nn.MLP // prompt-tuned classification head
	hps   *nn.ParamSet
	rng   *rand.Rand
	dim   int
}

// NewPreLog returns the evaluation configuration.
func NewPreLog() *PreLog {
	return &PreLog{ModelDim: 32, Heads: 2, FFDim: 64, Depth: 1,
		MaskProb: 0.3, PreEpochs: 4, Train: defaultTrainCfg()}
}

// Name implements Method.
func (p *PreLog) Name() string { return "PreLog" }

// Fit implements Method.
func (p *PreLog) Fit(sc *Scenario) {
	p.rng = rand.New(rand.NewSource(sc.Seed + 31))
	p.dim = sc.Embedder.Dim
	p.ps = nn.NewParamSet()
	p.enc = nn.NewTransformerEncoder(p.ps, "prelog.enc", p.rng, p.dim, p.ModelDim, p.Heads, p.FFDim, p.Depth, 0.1)
	p.recon = nn.NewLinear(p.ps, "prelog.recon", p.rng, p.ModelDim, p.dim)
	opt := optim.NewAdamW(p.ps, p.Train.LR)

	// Phase 1: masked-event pre-training on pooled source data only.
	pre := repr.Concat(sc.RawSources()...)
	batch := p.Train.Batch
	steps := pre.Len() / batch * p.PreEpochs
	for s := 0; s < steps; s++ {
		idx := randomIndices(p.rng, pre.Len(), batch)
		x, _ := pre.Gather(idx)
		masked, targets, maskRows := p.mask(x)
		g := nn.NewGraph()
		h := p.enc.Forward(g, g.Const(masked), p.rng, true) // [B,T,ModelDim]
		b, t := h.Value.Dim(0), h.Value.Dim(1)
		flat := g.Reshape(h, b*t, p.ModelDim)
		rec := p.recon.Forward(g, g.GatherRows(flat, maskRows))
		loss := g.MSE(rec, targets)
		g.Backward(loss)
		p.ps.ClipGradNorm(5)
		opt.Step()
	}

	// Phase 2: prompt tuning — encoder frozen, only the head trains, on
	// the target slice alone.
	p.hps = nn.NewParamSet()
	p.head = nn.NewMLP(p.hps, "prelog.head", p.rng, p.ModelDim, p.ModelDim, 1)
	hopt := optim.NewAdamW(p.hps, p.Train.LR)
	target := sc.Raw(sc.TargetTrain)
	sampler := repr.NewBalancedSampler(target.Labels, p.Train.PosFraction, p.rng)
	tuneSteps := max(target.Len()/batch, 1) * p.Train.Epochs
	for s := 0; s < tuneSteps; s++ {
		idx := sampler.Sample(batch)
		x, labels := target.Gather(idx)
		g := nn.NewGraph()
		pooled := p.encodeFrozen(g, x)
		loss := g.BCEWithLogits(p.head.Forward(g, pooled), labels)
		g.Backward(loss)
		p.hps.ClipGradNorm(5)
		hopt.Step()
	}
}

// encodeFrozen runs the encoder without exposing its parameters to the
// gradient tape (prompt tuning trains the head only).
func (p *PreLog) encodeFrozen(g *nn.Graph, x *tensor.Tensor) *nn.Node {
	// A fresh graph node from the frozen encoder: run it on a throwaway
	// graph and re-import the pooled values as a constant.
	eg := nn.NewGraph()
	pooled := p.enc.EncodePooled(eg, eg.Const(x), p.rng, false)
	return g.Const(pooled.Value)
}

// mask hides MaskProb of the events: masked positions are zeroed in the
// input; targets collects their original embeddings; maskRows indexes the
// flattened [B*T] rows that were masked.
func (p *PreLog) mask(x *tensor.Tensor) (masked, targets *tensor.Tensor, maskRows []int) {
	b, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	masked = x.Clone()
	var targetData []float64
	for i := 0; i < b; i++ {
		maskedAny := false
		for s := 0; s < t; s++ {
			if p.rng.Float64() < p.MaskProb {
				row := (i*t + s)
				targetData = append(targetData, x.Data[row*d:(row+1)*d]...)
				maskRows = append(maskRows, row)
				for k := 0; k < d; k++ {
					masked.Data[row*d+k] = 0
				}
				maskedAny = true
			}
		}
		if !maskedAny { // guarantee at least one masked event per sequence
			s := p.rng.Intn(t)
			row := i*t + s
			targetData = append(targetData, x.Data[row*d:(row+1)*d]...)
			maskRows = append(maskRows, row)
			for k := 0; k < d; k++ {
				masked.Data[row*d+k] = 0
			}
		}
	}
	return masked, tensor.FromSlice(targetData, len(maskRows), d), maskRows
}

// Score implements Method.
func (p *PreLog) Score(sc *Scenario) []float64 {
	return scoreRows(sc.Raw(sc.TargetTest), func(g *nn.Graph, x *tensor.Tensor) *nn.Node {
		return p.head.Forward(g, p.encodeFrozen(g, x))
	}, sigmoidRow)
}

func randomIndices(rng *rand.Rand, n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
