package baselines

import (
	"math/rand"

	"logsynergy/internal/nn"
	"logsynergy/internal/nn/optim"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// LogTransfer (Chen et al., ISSRE 2020) is supervised cross-system
// transfer: an LSTM network is trained on the labeled source system, then
// the shared LSTM layers are frozen and only the fully connected
// classification layers are fine-tuned on the target system's labeled
// slice. Word-level GloVe vectors provide the input representation in the
// original; the shared raw embedder plays that role here.
type LogTransfer struct {
	// Hidden is the LSTM width (paper: 2×128; CPU scale).
	Hidden int
	Train  trainCfg

	sharedPS *nn.ParamSet // LSTM: trained on source, then frozen
	headPS   *nn.ParamSet // fully connected layers: fine-tuned on target
	lstm     *nn.LSTM
	fc       *nn.MLP
	rng      *rand.Rand
}

// NewLogTransfer returns the evaluation configuration.
func NewLogTransfer() *LogTransfer {
	return &LogTransfer{Hidden: 32, Train: defaultTrainCfg()}
}

// Name implements Method.
func (l *LogTransfer) Name() string { return "LogTransfer" }

// Fit implements Method.
func (l *LogTransfer) Fit(sc *Scenario) {
	l.rng = rand.New(rand.NewSource(sc.Seed + 41))
	dim := sc.Embedder.Dim

	l.sharedPS = nn.NewParamSet()
	l.headPS = nn.NewParamSet()
	l.lstm = nn.NewLSTM(l.sharedPS, "logtransfer.lstm", l.rng, dim, l.Hidden)
	l.fc = nn.NewMLP(l.headPS, "logtransfer.fc", l.rng, l.Hidden, l.Hidden, 1)

	// Stage 1: source training updates both the shared LSTM and the head.
	source := repr.Concat(sc.RawSources()...)
	all := nn.NewParamSet()
	all.Merge(l.sharedPS)
	all.Merge(l.headPS)
	l.trainOn(source, all)

	// Stage 2: transfer — freeze the shared network, fine-tune the fully
	// connected layers on the target's labeled slice.
	l.trainOn(sc.Raw(sc.TargetTrain), l.headPS)
}

// trainOn runs balanced supervised training, updating only the params in
// trainable (gradients accumulate everywhere but only trainable steps).
func (l *LogTransfer) trainOn(d *repr.Dataset, trainable *nn.ParamSet) {
	if d.Len() == 0 {
		return
	}
	opt := optim.NewAdamW(trainable, l.Train.LR)
	sampler := repr.NewBalancedSampler(d.Labels, l.Train.PosFraction, l.rng)
	steps := max(d.Len()/l.Train.Batch, 1) * l.Train.Epochs
	for s := 0; s < steps; s++ {
		idx := sampler.Sample(l.Train.Batch)
		x, labels := d.Gather(idx)
		g := nn.NewGraph()
		_, last := l.lstm.Forward(g, g.Const(x))
		loss := g.BCEWithLogits(l.fc.Forward(g, last), labels)
		g.Backward(loss)
		trainable.ClipGradNorm(5)
		opt.Step()
		// Discard gradients of frozen parameters.
		l.sharedPS.ZeroGrad()
		l.headPS.ZeroGrad()
	}
}

// Score implements Method.
func (l *LogTransfer) Score(sc *Scenario) []float64 {
	return scoreRows(sc.Raw(sc.TargetTest), func(g *nn.Graph, x *tensor.Tensor) *nn.Node {
		_, last := l.lstm.Forward(g, g.Const(x))
		return l.fc.Forward(g, last)
	}, sigmoidRow)
}
