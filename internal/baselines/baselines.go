// Package baselines implements the nine comparison methods of the paper's
// evaluation (§IV-A2, Tables IV and V): DeepLog, LogAnomaly, PLELog,
// SpikeLog, NeuralLog, LogRobust, PreLog, LogTAD, LogTransfer and MetaLog.
//
// Every method is reimplemented from scratch on the same substrate as
// LogSynergy (internal/nn) at the same reduced CPU scale, keeping each
// method's architecture family and — crucially — its *data regime*: which
// slices of the training data its paradigm is allowed to see. None of the
// baselines uses LEI; they embed raw templates, exactly as their original
// papers do with word2vec/GloVe/BERT on raw log text.
package baselines

import (
	"math"
	"math/rand"

	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/metrics"
	"logsynergy/internal/nn"
	"logsynergy/internal/nn/optim"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// Scenario is one cross-system evaluation setting: labeled training slices
// from the source systems, a small labeled training slice of the target
// system, and the target's held-out test stream.
type Scenario struct {
	// Sources holds each source system's training sequences.
	Sources []*logdata.Sequences
	// TargetTrain is the target system's (small) training slice.
	TargetTrain *logdata.Sequences
	// TargetTest is the target system's evaluation slice.
	TargetTest *logdata.Sequences
	// Embedder provides the shared raw-text feature space.
	Embedder *embed.Embedder
	// Seed drives all method-internal randomness.
	Seed int64

	cache map[*logdata.Sequences]*repr.Dataset
}

// Raw returns (and caches) the raw-template representation of a sequence
// set: templates embedded without interpretation (lei.Identity), the
// representation every baseline operates on.
func (sc *Scenario) Raw(seqs *logdata.Sequences) *repr.Dataset {
	if sc.cache == nil {
		sc.cache = make(map[*logdata.Sequences]*repr.Dataset)
	}
	if d, ok := sc.cache[seqs]; ok {
		return d
	}
	d := repr.Build(seqs, lei.Identity{}, sc.Embedder)
	sc.cache[seqs] = d
	return d
}

// RawSources returns the raw representation of every source training set.
func (sc *Scenario) RawSources() []*repr.Dataset {
	out := make([]*repr.Dataset, len(sc.Sources))
	for i, s := range sc.Sources {
		out[i] = sc.Raw(s)
	}
	return out
}

// Method is one log anomaly detection method under the paper's protocol.
type Method interface {
	// Name returns the method's display name as used in the tables.
	Name() string
	// Fit trains the method on the scenario's training data.
	Fit(sc *Scenario)
	// Score returns anomaly probabilities (0.5 is the decision threshold)
	// for the target test sequences, in order.
	Score(sc *Scenario) []float64
}

// Evaluate fits a method and scores it on the target test set, returning
// the paper's (P, R, F1) triple at threshold 0.5.
func Evaluate(m Method, sc *Scenario) metrics.Result {
	m.Fit(sc)
	scores := m.Score(sc)
	labels := make([]bool, len(sc.TargetTest.Samples))
	for i, s := range sc.TargetTest.Samples {
		labels[i] = s.Label
	}
	return metrics.Evaluate(scores, labels, 0.5)
}

// trainCfg bundles the shared supervised-training hyper-parameters used by
// the neural baselines at CPU scale.
type trainCfg struct {
	Epochs      int
	Batch       int
	LR          float64
	PosFraction float64
}

func defaultTrainCfg() trainCfg {
	return trainCfg{Epochs: 8, Batch: 64, LR: 3e-3, PosFraction: 0.35}
}

// encoderFn maps a [B,T,D] input node to a [B,H] representation.
type encoderFn func(g *nn.Graph, x *nn.Node, train bool) *nn.Node

// seqClassifier is a generic supervised sequence classifier: a pluggable
// encoder followed by a linear head, trained with BCE. NeuralLog,
// LogRobust and several transfer baselines instantiate it with their own
// encoders.
type seqClassifier struct {
	params *nn.ParamSet
	enc    encoderFn
	head   *nn.Linear
}

func newSeqClassifier(ps *nn.ParamSet, rng *rand.Rand, enc encoderFn, hidDim int) *seqClassifier {
	return &seqClassifier{params: ps, enc: enc, head: nn.NewLinear(ps, "head", rng, hidDim, 1)}
}

// logits builds the classification graph for a batch node.
func (c *seqClassifier) logits(g *nn.Graph, x *nn.Node, train bool) *nn.Node {
	return c.head.Forward(g, c.enc(g, x, train))
}

// fit trains the classifier on a dataset with balanced sampling.
func (c *seqClassifier) fit(d *repr.Dataset, cfg trainCfg, rng *rand.Rand, opt optim.Optimizer) {
	sampler := repr.NewBalancedSampler(d.Labels, cfg.PosFraction, rng)
	steps := d.Len() / cfg.Batch * cfg.Epochs
	if steps < cfg.Epochs {
		steps = cfg.Epochs
	}
	for s := 0; s < steps; s++ {
		idx := sampler.Sample(cfg.Batch)
		x, labels := d.Gather(idx)
		g := nn.NewGraph()
		loss := g.BCEWithLogits(c.logits(g, g.Const(x), true), labels)
		g.Backward(loss)
		c.params.ClipGradNorm(5)
		opt.Step()
	}
}

// score returns anomaly probabilities over a dataset.
func (c *seqClassifier) score(d *repr.Dataset) []float64 {
	return scoreRows(d, func(g *nn.Graph, x *tensor.Tensor) *nn.Node {
		return c.logits(g, g.Const(x), false)
	}, sigmoidRow)
}

// scoreChunk is how many rows one scoring graph holds.
const scoreChunk = 256

// scoreRows runs forward over d in chunks of scoreChunk rows, each on a
// fresh graph, and maps every row of the output node to one score.
func scoreRows(d *repr.Dataset, forward func(g *nn.Graph, x *tensor.Tensor) *nn.Node, row func([]float64) float64) []float64 {
	out := make([]float64, 0, d.Len())
	for start := 0; start < d.Len(); start += scoreChunk {
		idx := make([]int, min(scoreChunk, d.Len()-start))
		for i := range idx {
			idx[i] = start + i
		}
		x, _ := d.Gather(idx)
		v := forward(nn.NewGraph(), x).Value.Data
		w := len(v) / len(idx)
		for i := range idx {
			out = append(out, row(v[i*w:(i+1)*w]))
		}
	}
	return out
}

// sigmoidRow maps a one-logit row to its anomaly probability.
func sigmoidRow(r []float64) float64 { return sigmoid(r[0]) }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
