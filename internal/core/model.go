package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"logsynergy/internal/club"
	"logsynergy/internal/daan"
	"logsynergy/internal/mmd"
	"logsynergy/internal/nn"
	"logsynergy/internal/tensor"
)

// Model is the LogSynergy network (paper §III-D1): feature extractor F
// (transformer encoder), anomaly classifier C_anomaly, system classifier
// C_system, mutual-information module MI (CLUB) and domain-adaptation
// module DA (DAAN). Only F and C_anomaly run during online detection.
type Model struct {
	Cfg Config

	// Params holds F, C_anomaly and C_system — the parameters the main
	// optimizer owns. The DA classifiers train through the same optimizer
	// (their set is merged in by the Trainer); CLUB's q has its own.
	Params *nn.ParamSet

	encoder   *nn.TransformerEncoder
	inputProj *nn.Linear
	poolProj  *nn.Linear
	canomaly  *nn.MLP
	csystem   *nn.MLP
	mi        *club.Estimator
	da        *daan.Adapter

	numSystems int
	rng        *rand.Rand

	// graphs recycles inference graphs and their warm arenas across
	// scoring calls and workers.
	graphs freeList[*nn.Graph]
}

// freeList recycles scoring scratch (inference graphs, stacked inputs)
// between calls and goroutines. It is not a sync.Pool because the collector
// empties those: a graph's arena is megabytes that took several forwards to
// size, and in a process that also allocates (serving beside training, or
// just parsing) every collection would make scoring grow them again, at
// moments of the collector's choosing.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// get pops the most recently returned item, if there is one.
func (l *freeList[T]) get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		v, l.free = l.free[n-1], l.free[:n-1]
		return v, true
	}
	return v, false
}

// put returns an item. The list keeps what can be in use at once — twice
// GOMAXPROCS covers callers parked on their spans — and drops the rest, so
// a burst of concurrent callers does not pin its scratch for good.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < 2*runtime.GOMAXPROCS(0) {
		l.free = append(l.free, v)
	}
}

// NewModel builds a LogSynergy model for numSystems training systems
// (sources plus target; the system classifier predicts which one a sample
// came from).
func NewModel(cfg Config, numSystems int) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	fd := cfg.featureDim()
	m := &Model{
		Cfg:        cfg,
		Params:     ps,
		encoder:    nn.NewTransformerEncoder(ps, "F", rng, cfg.EmbedDim, cfg.ModelDim, cfg.Heads, cfg.FFDim, cfg.Depth, cfg.Dropout),
		inputProj:  nn.NewLinear(ps, "Fskip", rng, cfg.EmbedDim, cfg.ModelDim),
		poolProj:   nn.NewLinear(ps, "Fpool", rng, 2*cfg.ModelDim, cfg.fusedDim()),
		canomaly:   nn.NewMLP(ps, "Canomaly", rng, fd, fd, 1),
		numSystems: numSystems,
		rng:        rng,
	}
	if cfg.UseSUFE {
		m.csystem = nn.NewMLP(ps, "Csystem", rng, fd, fd, numSystems)
		m.mi = club.New(rand.New(rand.NewSource(cfg.Seed+101)), fd, fd, 2*fd, 1e-3)
	}
	if cfg.UseDA && cfg.DAMethod != "mmd" {
		m.da = daan.New(rand.New(rand.NewSource(cfg.Seed+202)), fd, fd, 2, cfg.DynamicOmega)
	}
	return m
}

// DomainAdapterParams exposes the DA classifiers' parameters so the
// Trainer can register them with the main optimizer (they are updated
// adversarially via the GRL, exactly as in DAAN). Returns nil without DA.
func (m *Model) DomainAdapterParams() *nn.ParamSet {
	if m.da == nil {
		return nil
	}
	return m.da.Params
}

// forwardOut bundles the per-batch forward products: the sequence-level
// anomaly logits plus the pooled unified/specific features the auxiliary
// objectives (C_system, MI, DA) operate on. fsMean is nil without SUFE.
type forwardOut struct {
	logits *nn.Node // [B,1] sequence anomaly logits
	fuMean *nn.Node // [B,fd] pooled system-unified features
	fsMean *nn.Node // [B,fd] pooled system-specific features (SUFE only)
}

// forward runs the full feature extractor.
//
// F fuses, per timestep, the transformer's contextual state h_t with a
// projection of the raw event embedding x_t (a skip connection past the
// encoder, keeping each event's LEI-unified identity intact regardless of
// the surrounding system-flavored context). The fused per-step features
// split into unified (F_u) and specific (F_s) halves under SUFE.
//
// The anomaly readout is multiple-instance: C_anomaly scores every step's
// F_u and the sequence logit is the per-step maximum. A sequence is
// anomalous iff it *contains* an anomalous event (the labeling rule in
// §IV-A1), and the max readout represents "contains" exactly — pooling
// first and classifying second dilutes a single anomalous event by 1/T
// and lets normal context shadow it, which breaks cross-system transfer
// on the 0.17%-anomaly-rate targets of Table III.
func (m *Model) forward(g *nn.Graph, x *nn.Node, train bool) forwardOut {
	b, t := x.Value.Dim(0), x.Value.Dim(1)
	md := m.Cfg.ModelDim
	h := m.encoder.Forward(g, x, m.rng, train)  // [B,T,M]
	skip := g.Tanh(m.inputProj.Forward3D(g, x)) // [B,T,M]
	hFlat := g.Reshape(h, b*t, md)
	sFlat := g.Reshape(skip, b*t, md)
	zFlat := m.poolProj.Forward(g, g.ConcatCols(hFlat, sFlat)) // [B*T, fusedDim]

	fd := m.Cfg.featureDim()
	fuFlat := zFlat
	var fsFlat *nn.Node
	if m.Cfg.UseSUFE {
		fuFlat = g.SliceCols(zFlat, 0, fd)
		fsFlat = g.SliceCols(zFlat, fd, 2*fd)
	}

	stepLogits := m.canomaly.Forward(g, fuFlat)         // [B*T,1]
	logits := g.MaxTime(g.Reshape(stepLogits, b, t, 1)) // [B,1]

	out := forwardOut{
		logits: logits,
		fuMean: g.MeanTime(g.Reshape(fuFlat, b, t, fd)),
	}
	if fsFlat != nil {
		out.fsMean = g.MeanTime(g.Reshape(fsFlat, b, t, fd))
	}
	return out
}

// batchLosses bundles the per-batch objective terms (Eq. 5 components).
type batchLosses struct {
	Total, Anomaly, System, MI, DA float64
}

// trainStep builds the full training graph for one batch and runs
// backward. x is [B,T,E]; labels are anomaly labels; systems are system
// ids in [0, numSystems); domains are 0 (source) / 1 (target); grlLambda
// is the current gradient-reversal strength.
func (m *Model) trainStep(x *tensor.Tensor, labels []float64, systems []int, domains []float64, grlLambda float64) batchLosses {
	if m.Cfg.InputNoise > 0 {
		x = x.Clone()
		for i := range x.Data {
			x.Data[i] += m.rng.NormFloat64() * m.Cfg.InputNoise
		}
	}
	g := nn.NewGraph()
	fwd := m.forward(g, g.Const(x), true)

	loss := g.BCEWithLogits(fwd.logits, labels)
	out := batchLosses{Anomaly: loss.Value.Data[0]}

	if m.Cfg.UseSUFE {
		sysLoss := g.CrossEntropyLogits(m.csystem.Forward(g, fwd.fsMean), systems)
		out.System = sysLoss.Value.Data[0]
		loss = g.Add(loss, sysLoss)

		miLoss := m.mi.Estimate(g, fwd.fuMean, fwd.fsMean)
		out.MI = miLoss.Value.Data[0]
		loss = g.Add(loss, g.Scale(miLoss, m.Cfg.LambdaMI))
	}

	if m.Cfg.UseDA {
		var daLoss *nn.Node
		if m.Cfg.DAMethod == "mmd" {
			daLoss = mmd.Loss(g, fwd.fuMean, domains, nil)
		} else {
			probs := make([]float64, len(labels))
			for i, z := range fwd.logits.Value.Data {
				probs[i] = 1 / (1 + math.Exp(-z))
			}
			daLoss = m.da.Loss(g, fwd.fuMean, domains, probs, grlLambda)
		}
		out.DA = daLoss.Value.Data[0]
		loss = g.Add(loss, g.Scale(daLoss, m.Cfg.LambdaDA))
	}

	out.Total = loss.Value.Data[0]
	g.Backward(loss)

	// Train CLUB's variational q on the detached feature batch, keeping
	// the MI bound tight as the feature distribution moves.
	if m.Cfg.UseSUFE {
		m.mi.LearnStep(fwd.fuMean.Value, fwd.fsMean.Value)
	}
	return out
}

// forwardWindows is the most windows one tape-free forward covers, whatever
// batch a caller asks for. Every kernel works per row or per batch entry, so
// the split never shows in the output; it bounds the scratch arena a pooled
// graph pins (≈190 KB of activations per window at the default
// configuration) and keeps a forward's working set near the cache.
const forwardWindows = 16

// infer runs the tape-free forward (F and the readouts, no dropout) over
// x [N,T,E] in forwards of at most batch windows, spread over the tensor
// worker pool — the one level of parallelism of a scoring call: inside a
// forward every kernel stays on its goroutine. emit sees each forward's
// products, for the windows starting at row start, on the goroutine that
// ran it; they live in g's arena and are gone when emit returns.
func (m *Model) infer(x *tensor.Tensor, batch int, emit func(g *nn.Graph, start int, fwd forwardOut)) {
	if x.Dims() != 3 || x.Dim(1) == 0 || x.Dim(2) != m.Cfg.EmbedDim {
		// Checked here, on the caller's goroutine: a panic inside a pooled
		// span cannot be recovered.
		panic(fmt.Sprintf("core: cannot run the model on input of shape %v: want [N,T,%d] with T > 0", x.Shape, m.Cfg.EmbedDim))
	}
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	if batch <= 0 || batch > forwardWindows {
		batch = forwardWindows
	}
	// A window's forward is far past any serial-fallback threshold: size the
	// estimate so that two windows always shard when there are workers.
	tensor.ParallelRange(n, n*tensor.MinParallelWork(), func(lo, hi int) {
		g, ok := m.graphs.get()
		if !ok {
			g = nn.NewInferenceGraph()
		}
		for start := lo; start < hi; start += batch {
			end := min(start+batch, hi)
			chunk := tensor.FromSlice(x.Data[start*t*d:end*t*d], end-start, t, d)
			emit(g, start, m.forward(g, g.Const(chunk), false))
			g.Reset()
		}
		m.graphs.put(g)
	})
}

// Score returns anomaly probabilities for a batch tensor [N,T,E]. This is
// the online detection path: F and C_anomaly only (paper §III-E), on a
// tape-free graph. batch caps the windows per forward (at most
// forwardWindows; <= 0 means that cap); scores do not depend on it, on how
// the windows are batched by the caller, or on the worker count, bit for bit.
func (m *Model) Score(x *tensor.Tensor, batch int) []float64 {
	out := make([]float64, x.Dim(0))
	m.infer(x, batch, func(_ *nn.Graph, start int, fwd forwardOut) {
		for i, z := range fwd.logits.Value.Data {
			out[start+i] = 1 / (1 + math.Exp(-z))
		}
	})
	return out
}

// SystemLogits predicts the system id distribution from F_s for a batch
// (diagnostics; only meaningful with SUFE enabled).
func (m *Model) SystemLogits(x *tensor.Tensor) *tensor.Tensor {
	if !m.Cfg.UseSUFE {
		return nil
	}
	out := tensor.New(x.Dim(0), m.numSystems)
	m.infer(x, 0, func(g *nn.Graph, start int, fwd forwardOut) {
		copy(out.Data[start*m.numSystems:], m.csystem.Forward(g, fwd.fsMean).Value.Data)
	})
	return out
}

// Features returns the pooled (F_u, F_s) values for a batch (diagnostics
// and the case-study experiment). fs is nil without SUFE.
func (m *Model) Features(x *tensor.Tensor) (fuV, fsV *tensor.Tensor) {
	fd := m.Cfg.featureDim()
	fuV = tensor.New(x.Dim(0), fd)
	if m.Cfg.UseSUFE {
		fsV = tensor.New(x.Dim(0), fd)
	}
	m.infer(x, 0, func(_ *nn.Graph, start int, fwd forwardOut) {
		copy(fuV.Data[start*fd:], fwd.fuMean.Value.Data)
		if fsV != nil {
			copy(fsV.Data[start*fd:], fwd.fsMean.Value.Data)
		}
	})
	return fuV, fsV
}
