package baselines

import (
	"math"
	"math/rand"

	"logsynergy/internal/nn"
	"logsynergy/internal/nn/optim"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// SpikeLog (Qi et al., TKDE 2023) detects anomalies with a
// potential-assisted spiking neural network under weak supervision: the
// protocol reveals 98% of the anomalous sequences plus the unlabeled rest
// (treated as normal). The leaky integrate-and-fire (LIF) layer integrates
// per-timestep input currents into membrane potentials, emits spikes above
// a threshold, and trains through a surrogate gradient; the readout
// combines the spike rate with the residual membrane potential (the
// "potential-assisted" part).
type SpikeLog struct {
	// Hidden is the LIF layer width (paper: 128; CPU scale).
	Hidden int
	// Threshold is the firing threshold; Decay the membrane leak factor.
	Threshold float64
	Decay     float64
	// SurrogateSlope controls the steepness of the sigmoid surrogate.
	SurrogateSlope float64
	// RevealedAnomalyFraction is the weak-supervision rate (paper: 0.98).
	RevealedAnomalyFraction float64
	Train                   trainCfg

	ps   *nn.ParamSet
	inW  *nn.Linear
	out  *nn.Linear
	rng  *rand.Rand
	once bool
}

// NewSpikeLog returns the evaluation configuration.
func NewSpikeLog() *SpikeLog {
	return &SpikeLog{
		Hidden:                  32,
		Threshold:               1.0,
		Decay:                   0.6,
		SurrogateSlope:          4,
		RevealedAnomalyFraction: 0.98,
		Train:                   defaultTrainCfg(),
	}
}

// Name implements Method.
func (s *SpikeLog) Name() string { return "SpikeLog" }

// lif runs the spiking dynamics over x [B,T,D], returning the mean spike
// rate plus final membrane potential per hidden unit ([B,2*Hidden]).
// Spikes use a hard threshold forward and a sigmoid surrogate backward,
// implemented as surrogate + (hard - surrogate).detach() — the standard
// straight-through construction, expressed here by adding a constant
// correction node.
func (s *SpikeLog) lif(g *nn.Graph, x *nn.Node) *nn.Node {
	b, t := x.Value.Dim(0), x.Value.Dim(1)
	potential := g.Const(tensor.New(b, s.Hidden))
	var rate *nn.Node
	for step := 0; step < t; step++ {
		current := s.inW.Forward(g, g.SelectTime(x, step))
		potential = g.Add(g.Scale(potential, s.Decay), current)
		// Surrogate spike: sigmoid(slope*(V - threshold)).
		surrogate := g.Sigmoid(g.Scale(g.AddScalar(potential, -s.Threshold), s.SurrogateSlope))
		// Hard spike correction (constant: no gradient).
		correction := tensor.New(b, s.Hidden)
		for i, v := range potential.Value.Data {
			hard := 0.0
			if v >= s.Threshold {
				hard = 1
			}
			correction.Data[i] = hard - surrogate.Value.Data[i]
		}
		spike := g.Add(surrogate, g.Const(correction))
		// Soft reset: subtract threshold where spiking.
		potential = g.Sub(potential, g.Scale(spike, s.Threshold))
		if rate == nil {
			rate = spike
		} else {
			rate = g.Add(rate, spike)
		}
	}
	rate = g.Scale(rate, 1/float64(t))
	return g.ConcatCols(rate, potential)
}

// Fit implements Method: weakly supervised training on the target slice
// with 98% of anomalies revealed and the rest treated as normal.
func (s *SpikeLog) Fit(sc *Scenario) {
	s.rng = rand.New(rand.NewSource(sc.Seed + 29))
	target := sc.Raw(sc.TargetTrain)

	labels := make([]bool, target.Len())
	for i, l := range target.Labels {
		if l && s.rng.Float64() < s.RevealedAnomalyFraction {
			labels[i] = true
		}
	}
	weak := &repr.Dataset{System: target.System, X: target.X, Labels: labels,
		Table: target.Table, SeqLen: target.SeqLen}

	s.ps = nn.NewParamSet()
	s.inW = nn.NewLinear(s.ps, "spikelog.in", s.rng, sc.Embedder.Dim, s.Hidden)
	s.out = nn.NewLinear(s.ps, "spikelog.out", s.rng, 2*s.Hidden, 1)
	opt := optim.NewAdamW(s.ps, s.Train.LR)

	clf := &seqClassifier{params: s.ps, enc: func(g *nn.Graph, x *nn.Node, train bool) *nn.Node {
		return s.lif(g, x)
	}, head: s.out}
	clf.fit(weak, s.Train, s.rng, opt)
	s.once = true
}

// Score implements Method.
func (s *SpikeLog) Score(sc *Scenario) []float64 {
	return scoreRows(sc.Raw(sc.TargetTest), func(g *nn.Graph, x *tensor.Tensor) *nn.Node {
		return s.out.Forward(g, s.lif(g, g.Const(x)))
	}, func(r []float64) float64 { return 1 / (1 + math.Exp(-r[0])) })
}
