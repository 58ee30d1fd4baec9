package baselines

import (
	"math/rand"
	"sort"

	"logsynergy/internal/nn"
	"logsynergy/internal/nn/optim"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// LogTAD (Han & Yuan, CIKM 2021) is unsupervised cross-system detection
// via domain adaptation: an LSTM encoder maps *normal* sequences from both
// the source and target systems close to a shared center vector (Deep
// SVDD-style), while a domain discriminator trained through a GRL makes
// the representations domain-invariant. At test time the anomaly score is
// the distance to the center; the threshold derives from the training
// distance distribution.
type LogTAD struct {
	// Hidden is the LSTM width (paper: 2×128; CPU scale).
	Hidden int
	// Quantile sets the detection threshold on normal-train distances.
	Quantile float64
	// GRLLambda weights the adversarial domain loss.
	GRLLambda float64
	Train     trainCfg

	ps        *nn.ParamSet
	lstm      *nn.LSTM
	domainClf *nn.MLP
	center    *tensor.Tensor
	threshold float64
	rng       *rand.Rand
}

// NewLogTAD returns the evaluation configuration.
func NewLogTAD() *LogTAD {
	return &LogTAD{Hidden: 32, Quantile: 0.95, GRLLambda: 1, Train: defaultTrainCfg()}
}

// Name implements Method.
func (l *LogTAD) Name() string { return "LogTAD" }

// Fit implements Method: train on normal sequences from the sources and
// the target slice (its unsupervised regime uses all normal samples).
func (l *LogTAD) Fit(sc *Scenario) {
	l.rng = rand.New(rand.NewSource(sc.Seed + 37))
	dim := sc.Embedder.Dim

	// Collect normal-only rows from every domain; domain label 1 = target.
	type part struct {
		d      *repr.Dataset
		domain float64
	}
	var parts []part
	for _, s := range sc.RawSources() {
		parts = append(parts, part{normalOnly(s), 0})
	}
	parts = append(parts, part{normalOnly(sc.Raw(sc.TargetTrain)), 1})

	l.ps = nn.NewParamSet()
	l.lstm = nn.NewLSTM(l.ps, "logtad.lstm", l.rng, dim, l.Hidden)
	l.domainClf = nn.NewMLP(l.ps, "logtad.domain", l.rng, l.Hidden, l.Hidden, 1)
	opt := optim.NewAdamW(l.ps, l.Train.LR)

	// Initialize the shared center as the mean initial representation of a
	// normal sample batch (Deep SVDD convention).
	l.center = l.initCenter(parts[0].d)

	batch := l.Train.Batch
	perDomain := max(batch/len(parts), 1)
	steps := 0
	for _, p := range parts {
		steps += p.d.Len()
	}
	steps = max(steps/batch, 1) * l.Train.Epochs

	for s := 0; s < steps; s++ {
		g := nn.NewGraph()
		var loss *nn.Node
		for _, p := range parts {
			if p.d.Len() == 0 {
				continue
			}
			idx := randomIndices(l.rng, p.d.Len(), perDomain)
			x, _ := p.d.Gather(idx)
			_, last := l.lstm.Forward(g, g.Const(x))
			// Pull representations toward the center.
			centerBatch := repeatRow(l.center, perDomain)
			dist := g.MSE(last, centerBatch)
			// Adversarial domain loss through the GRL.
			domLabels := make([]float64, perDomain)
			for i := range domLabels {
				domLabels[i] = p.domain
			}
			dom := g.BCEWithLogits(l.domainClf.Forward(g, g.GRL(last, l.GRLLambda)), domLabels)
			term := g.Add(dist, g.Scale(dom, 0.1))
			if loss == nil {
				loss = term
			} else {
				loss = g.Add(loss, term)
			}
		}
		g.Backward(loss)
		l.ps.ClipGradNorm(5)
		opt.Step()
	}

	// Threshold: quantile of normal-train distances on the target domain.
	tgt := parts[len(parts)-1].d
	if tgt.Len() == 0 {
		tgt = parts[0].d
	}
	dists := l.distances(tgt)
	sort.Float64s(dists)
	l.threshold = dists[int(float64(len(dists)-1)*l.Quantile)]
	if l.threshold == 0 {
		l.threshold = 1e-9
	}
}

// initCenter embeds the first up-to-256 rows and averages them.
func (l *LogTAD) initCenter(d *repr.Dataset) *tensor.Tensor {
	n := d.Len()
	if n > 256 {
		n = 256
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, _ := d.Gather(idx)
	g := nn.NewGraph()
	_, last := l.lstm.Forward(g, g.Const(x))
	c := tensor.New(l.Hidden)
	for i := 0; i < n; i++ {
		for j := 0; j < l.Hidden; j++ {
			c.Data[j] += last.Value.Data[i*l.Hidden+j]
		}
	}
	for j := range c.Data {
		c.Data[j] /= float64(n)
	}
	return c
}

// distances returns per-row squared distances to the center.
func (l *LogTAD) distances(d *repr.Dataset) []float64 {
	return scoreRows(d, func(g *nn.Graph, x *tensor.Tensor) *nn.Node {
		_, last := l.lstm.Forward(g, g.Const(x))
		return last
	}, func(r []float64) float64 {
		sum := 0.0
		for j, v := range r {
			diff := v - l.center.Data[j]
			sum += diff * diff
		}
		return sum
	})
}

// Score implements Method: distance mapped so the 0.5 threshold coincides
// with the learned distance threshold (score = d / (2·threshold), capped).
func (l *LogTAD) Score(sc *Scenario) []float64 {
	test := sc.Raw(sc.TargetTest)
	dists := l.distances(test)
	out := make([]float64, len(dists))
	for i, d := range dists {
		s := d / (2 * l.threshold)
		if s > 1 {
			s = 1
		}
		out[i] = s
	}
	return out
}

// normalOnly filters a dataset to its normal rows.
func normalOnly(d *repr.Dataset) *repr.Dataset {
	var idx []int
	for i, l := range d.Labels {
		if !l {
			idx = append(idx, i)
		}
	}
	x, _ := d.Gather(idx)
	return &repr.Dataset{System: d.System, X: x, Labels: make([]bool, len(idx)),
		Table: d.Table, SeqLen: d.SeqLen}
}

// repeatRow tiles a vector into a constant [n, len(v)] tensor.
func repeatRow(v *tensor.Tensor, n int) *tensor.Tensor {
	dim := v.Size()
	out := tensor.New(n, dim)
	for i := 0; i < n; i++ {
		copy(out.Data[i*dim:(i+1)*dim], v.Data)
	}
	return out
}
