package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"logsynergy/internal/tensor"
)

// SplitHeads reorders a [B,T,D] node into [B*H, T, D/H] so each attention
// head becomes an independent batch entry.
func (g *Graph) SplitHeads(x *Node, heads int) *Node {
	b, t, d := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: model dim %d not divisible by %d heads", d, heads))
	}
	dh := d / heads
	out := g.newTensor(b*heads, t, dh)
	for i := 0; i < b; i++ {
		for s := 0; s < t; s++ {
			for h := 0; h < heads; h++ {
				src := x.Value.Data[(i*t+s)*d+h*dh : (i*t+s)*d+(h+1)*dh]
				dst := out.Data[((i*heads+h)*t+s)*dh : ((i*heads+h)*t+s+1)*dh]
				copy(dst, src)
			}
		}
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		gx := tensor.New(b, t, d)
		for i := 0; i < b; i++ {
			for s := 0; s < t; s++ {
				for h := 0; h < heads; h++ {
					src := gr.Data[((i*heads+h)*t+s)*dh : ((i*heads+h)*t+s+1)*dh]
					dst := gx.Data[(i*t+s)*d+h*dh : (i*t+s)*d+(h+1)*dh]
					copy(dst, src)
				}
			}
		}
		x.accumulate(gx)
	}, x)
}

// MergeHeads inverts SplitHeads: [B*H, T, D/H] back to [B, T, D].
func (g *Graph) MergeHeads(x *Node, heads int) *Node {
	bh, t, dh := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	if bh%heads != 0 {
		panic(fmt.Sprintf("nn: batch*heads %d not divisible by %d heads", bh, heads))
	}
	b := bh / heads
	d := dh * heads
	out := g.newTensor(b, t, d)
	for i := 0; i < b; i++ {
		for s := 0; s < t; s++ {
			for h := 0; h < heads; h++ {
				src := x.Value.Data[((i*heads+h)*t+s)*dh : ((i*heads+h)*t+s+1)*dh]
				dst := out.Data[(i*t+s)*d+h*dh : (i*t+s)*d+(h+1)*dh]
				copy(dst, src)
			}
		}
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		gx := tensor.New(bh, t, dh)
		for i := 0; i < b; i++ {
			for s := 0; s < t; s++ {
				for h := 0; h < heads; h++ {
					src := gr.Data[(i*t+s)*d+h*dh : (i*t+s)*d+(h+1)*dh]
					dst := gx.Data[((i*heads+h)*t+s)*dh : ((i*heads+h)*t+s+1)*dh]
					copy(dst, src)
				}
			}
		}
		x.accumulate(gx)
	}, x)
}

// MultiHeadAttention is standard scaled dot-product self-attention with
// learned query/key/value/output projections (Vaswani et al., 2017).
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads          int
	Dim            int
	Dropout        float64
}

// NewMultiHeadAttention builds an attention block over model dimension dim.
func NewMultiHeadAttention(ps *ParamSet, prefix string, rng *rand.Rand, dim, heads int, dropout float64) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", dim, heads))
	}
	return &MultiHeadAttention{
		Wq:      NewLinear(ps, prefix+".wq", rng, dim, dim),
		Wk:      NewLinear(ps, prefix+".wk", rng, dim, dim),
		Wv:      NewLinear(ps, prefix+".wv", rng, dim, dim),
		Wo:      NewLinear(ps, prefix+".wo", rng, dim, dim),
		Heads:   heads,
		Dim:     dim,
		Dropout: dropout,
	}
}

// Forward applies self-attention to x [B,T,D].
func (a *MultiHeadAttention) Forward(g *Graph, x *Node, rng *rand.Rand, train bool) *Node {
	q := g.SplitHeads(a.Wq.Forward3D(g, x), a.Heads)
	k := g.SplitHeads(a.Wk.Forward3D(g, x), a.Heads)
	v := g.SplitHeads(a.Wv.Forward3D(g, x), a.Heads)
	scale := 1 / math.Sqrt(float64(a.Dim/a.Heads))
	scores := g.Scale(g.BMM(q, g.TransposeLast2(k)), scale)
	attn := g.SoftmaxLastDim(scores)
	attn = g.Dropout(attn, a.Dropout, rng, train)
	ctx := g.MergeHeads(g.BMM(attn, v), a.Heads)
	return a.Wo.Forward3D(g, ctx)
}

// TransformerEncoderLayer is one post-norm encoder block:
// x = LN(x + MHA(x)); x = LN(x + FFN(x)).
type TransformerEncoderLayer struct {
	Attn       *MultiHeadAttention
	FF1, FF2   *Linear
	Norm1      *LayerNormModule
	Norm2      *LayerNormModule
	Dropout    float64
	Dim, FFDim int
}

// NewTransformerEncoderLayer constructs one encoder block.
func NewTransformerEncoderLayer(ps *ParamSet, prefix string, rng *rand.Rand, dim, heads, ffDim int, dropout float64) *TransformerEncoderLayer {
	return &TransformerEncoderLayer{
		Attn:    NewMultiHeadAttention(ps, prefix+".attn", rng, dim, heads, dropout),
		FF1:     NewLinear(ps, prefix+".ff1", rng, dim, ffDim),
		FF2:     NewLinear(ps, prefix+".ff2", rng, ffDim, dim),
		Norm1:   NewLayerNorm(ps, prefix+".ln1", dim),
		Norm2:   NewLayerNorm(ps, prefix+".ln2", dim),
		Dropout: dropout,
		Dim:     dim,
		FFDim:   ffDim,
	}
}

// Forward applies the block to x [B,T,D].
func (l *TransformerEncoderLayer) Forward(g *Graph, x *Node, rng *rand.Rand, train bool) *Node {
	att := l.Attn.Forward(g, x, rng, train)
	att = g.Dropout(att, l.Dropout, rng, train)
	x = l.Norm1.Forward(g, g.Add(x, att))
	ff := l.FF2.Forward3D(g, g.ReLU(l.FF1.Forward3D(g, x)))
	ff = g.Dropout(ff, l.Dropout, rng, train)
	return l.Norm2.Forward(g, g.Add(x, ff))
}

// TransformerEncoder stacks encoder layers over an input projection and
// sinusoidal positional encodings, as used by LogSynergy's feature
// extractor F and by the NeuralLog baseline.
type TransformerEncoder struct {
	Proj   *Linear // input dim -> model dim (identity if dims equal: still learned)
	Layers []*TransformerEncoderLayer
	Dim    int
	// posEnc caches the positional table per sequence length. Batch scoring
	// runs Forward from many workers at once, so the map is never written:
	// a miss publishes a copy with the new table, and a hit is one load.
	posEnc atomic.Pointer[map[int]*tensor.Tensor]
}

// NewTransformerEncoder builds a stack of depth encoder layers with an input
// projection from inDim to modelDim.
func NewTransformerEncoder(ps *ParamSet, prefix string, rng *rand.Rand, inDim, modelDim, heads, ffDim, depth int, dropout float64) *TransformerEncoder {
	e := &TransformerEncoder{
		Proj: NewLinear(ps, prefix+".proj", rng, inDim, modelDim),
		Dim:  modelDim,
	}
	for i := 0; i < depth; i++ {
		e.Layers = append(e.Layers,
			NewTransformerEncoderLayer(ps, prefixIndex(prefix+".layer", i), rng, modelDim, heads, ffDim, dropout))
	}
	return e
}

// positional returns (and caches) the sinusoidal positional encoding table
// for sequences of length t.
func (e *TransformerEncoder) positional(t int) *tensor.Tensor {
	if m := e.posEnc.Load(); m != nil {
		if pe, ok := (*m)[t]; ok {
			return pe
		}
	}
	pe := tensor.New(t, e.Dim)
	for pos := 0; pos < t; pos++ {
		for i := 0; i < e.Dim; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(e.Dim))
			if i%2 == 0 {
				pe.Data[pos*e.Dim+i] = math.Sin(angle)
			} else {
				pe.Data[pos*e.Dim+i] = math.Cos(angle)
			}
		}
	}
	for {
		old := e.posEnc.Load()
		next := map[int]*tensor.Tensor{t: pe}
		if old != nil {
			if won, ok := (*old)[t]; ok {
				return won // a concurrent miss published first; all callers share its table
			}
			for k, v := range *old {
				next[k] = v
			}
		}
		if e.posEnc.CompareAndSwap(old, &next) {
			return pe
		}
	}
}

// Forward encodes x [B,T,inDim] into [B,T,modelDim].
func (e *TransformerEncoder) Forward(g *Graph, x *Node, rng *rand.Rand, train bool) *Node {
	h := g.AddTimeTable(e.Proj.Forward3D(g, x), e.positional(x.Value.Dim(1)))
	for _, l := range e.Layers {
		h = l.Forward(g, h, rng, train)
	}
	return h
}

// EncodePooled encodes x and mean-pools over time, producing [B,modelDim].
func (e *TransformerEncoder) EncodePooled(g *Graph, x *Node, rng *rand.Rand, train bool) *Node {
	return g.MeanTime(e.Forward(g, x, rng, train))
}
