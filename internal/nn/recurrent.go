package nn

import (
	"math/rand"

	"logsynergy/internal/tensor"
)

// LSTM is a single-layer long short-term memory network (Hochreiter &
// Schmidhuber, 1997), used by the DeepLog, LogAnomaly, PLELog, LogTAD and
// LogTransfer baselines. Gate order in the packed weight matrices is
// input, forget, cell candidate, output.
type LSTM struct {
	Wx, Wh, B *Param
	In, Hid   int
}

// NewLSTM creates an LSTM layer mapping inDim inputs to hid hidden units.
func NewLSTM(ps *ParamSet, prefix string, rng *rand.Rand, inDim, hid int) *LSTM {
	l := &LSTM{
		Wx:  ps.New(prefix+".wx", XavierUniform(rng, inDim, 4*hid)),
		Wh:  ps.New(prefix+".wh", XavierUniform(rng, hid, 4*hid)),
		B:   ps.New(prefix+".b", tensor.New(4*hid)),
		In:  inDim,
		Hid: hid,
	}
	// Forget-gate bias starts at 1 so early training does not erase state.
	for i := hid; i < 2*hid; i++ {
		l.B.Value.Data[i] = 1
	}
	return l
}

// Forward runs the LSTM over x [B,T,in]. It returns the stacked hidden
// states [B,T,hid] and the final hidden state [B,hid].
func (l *LSTM) Forward(g *Graph, x *Node) (seq, last *Node) {
	b, t := x.Value.Dim(0), x.Value.Dim(1)
	h := g.Const(tensor.New(b, l.Hid))
	c := g.Const(tensor.New(b, l.Hid))
	wx, wh, bias := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	steps := make([]*Node, 0, t)
	for s := 0; s < t; s++ {
		xt := g.SelectTime(x, s)
		z := g.AddBias(g.Add(g.MatMul(xt, wx), g.MatMul(h, wh)), bias)
		i := g.Sigmoid(g.SliceCols(z, 0, l.Hid))
		f := g.Sigmoid(g.SliceCols(z, l.Hid, 2*l.Hid))
		cc := g.Tanh(g.SliceCols(z, 2*l.Hid, 3*l.Hid))
		o := g.Sigmoid(g.SliceCols(z, 3*l.Hid, 4*l.Hid))
		c = g.Add(g.Mul(f, c), g.Mul(i, cc))
		h = g.Mul(o, g.Tanh(c))
		steps = append(steps, h)
	}
	return g.StackTime(steps), h
}

// ForwardReversed runs the LSTM over x with time reversed, returning the
// per-step outputs re-reversed into the original order plus the final
// (i.e. earliest-timestep) state. Used to build bidirectional models.
func (l *LSTM) ForwardReversed(g *Graph, x *Node) (seq, last *Node) {
	b, t := x.Value.Dim(0), x.Value.Dim(1)
	h := g.Const(tensor.New(b, l.Hid))
	c := g.Const(tensor.New(b, l.Hid))
	wx, wh, bias := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	steps := make([]*Node, t)
	for s := t - 1; s >= 0; s-- {
		xt := g.SelectTime(x, s)
		z := g.AddBias(g.Add(g.MatMul(xt, wx), g.MatMul(h, wh)), bias)
		i := g.Sigmoid(g.SliceCols(z, 0, l.Hid))
		f := g.Sigmoid(g.SliceCols(z, l.Hid, 2*l.Hid))
		cc := g.Tanh(g.SliceCols(z, 2*l.Hid, 3*l.Hid))
		o := g.Sigmoid(g.SliceCols(z, 3*l.Hid, 4*l.Hid))
		c = g.Add(g.Mul(f, c), g.Mul(i, cc))
		h = g.Mul(o, g.Tanh(c))
		steps[s] = h
	}
	return g.StackTime(steps), h
}

// BiLSTM pairs a forward and a backward LSTM and concatenates their
// per-step outputs, as used by the LogRobust baseline.
type BiLSTM struct {
	Fwd, Bwd *LSTM
	In, Hid  int
}

// NewBiLSTM creates a bidirectional LSTM; its output dimension is 2*hid.
func NewBiLSTM(ps *ParamSet, prefix string, rng *rand.Rand, inDim, hid int) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(ps, prefix+".fwd", rng, inDim, hid),
		Bwd: NewLSTM(ps, prefix+".bwd", rng, inDim, hid),
		In:  inDim,
		Hid: hid,
	}
}

// Forward returns per-step outputs [B,T,2*hid].
func (l *BiLSTM) Forward(g *Graph, x *Node) *Node {
	fseq, _ := l.Fwd.Forward(g, x)
	bseq, _ := l.Bwd.ForwardReversed(g, x)
	t := x.Value.Dim(1)
	out := make([]*Node, t)
	for s := 0; s < t; s++ {
		out[s] = g.ConcatCols(g.SelectTime(fseq, s), g.SelectTime(bseq, s))
	}
	return g.StackTime(out)
}

// GRU is a single-layer gated recurrent unit network (Cho et al.; gate
// variants per Dey & Salem, 2017), used by the MetaLog baseline. Gate order
// in the packed matrices is update (z), reset (r), candidate (n).
type GRU struct {
	Wx, Wh, B *Param
	In, Hid   int
}

// NewGRU creates a GRU layer mapping inDim inputs to hid hidden units.
func NewGRU(ps *ParamSet, prefix string, rng *rand.Rand, inDim, hid int) *GRU {
	return &GRU{
		Wx:  ps.New(prefix+".wx", XavierUniform(rng, inDim, 3*hid)),
		Wh:  ps.New(prefix+".wh", XavierUniform(rng, hid, 3*hid)),
		B:   ps.New(prefix+".b", tensor.New(3*hid)),
		In:  inDim,
		Hid: hid,
	}
}

// Forward runs the GRU over x [B,T,in], returning stacked hidden states
// [B,T,hid] and the final state [B,hid].
func (l *GRU) Forward(g *Graph, x *Node) (seq, last *Node) {
	b, t := x.Value.Dim(0), x.Value.Dim(1)
	h := g.Const(tensor.New(b, l.Hid))
	wx, wh, bias := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	steps := make([]*Node, 0, t)
	for s := 0; s < t; s++ {
		xt := g.SelectTime(x, s)
		xz := g.AddBias(g.MatMul(xt, wx), bias)
		hz := g.MatMul(h, wh)
		z := g.Sigmoid(g.Add(g.SliceCols(xz, 0, l.Hid), g.SliceCols(hz, 0, l.Hid)))
		r := g.Sigmoid(g.Add(g.SliceCols(xz, l.Hid, 2*l.Hid), g.SliceCols(hz, l.Hid, 2*l.Hid)))
		n := g.Tanh(g.Add(g.SliceCols(xz, 2*l.Hid, 3*l.Hid), g.Mul(r, g.SliceCols(hz, 2*l.Hid, 3*l.Hid))))
		// h' = (1-z)⊙n + z⊙h
		ones := tensor.New(b, l.Hid)
		ones.Fill(1)
		oneMinusZ := g.Sub(g.Const(ones), z)
		h = g.Add(g.Mul(oneMinusZ, n), g.Mul(z, h))
		steps = append(steps, h)
	}
	return g.StackTime(steps), h
}
