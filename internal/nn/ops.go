package nn

import (
	"fmt"
	"math"
	"math/rand"

	"logsynergy/internal/tensor"
)

// Add returns a + b (identical shapes).
func (g *Graph) Add(a, b *Node) *Node {
	if g.arena != nil {
		if !a.Value.SameShape(b.Value) {
			panic(fmt.Sprintf("nn: Add shape mismatch %v vs %v", a.Value.Shape, b.Value.Shape))
		}
		out := g.arena.New(a.Value.Shape...)
		for i, v := range a.Value.Data {
			out.Data[i] = v + b.Value.Data[i]
		}
		return g.result(out)
	}
	out := tensor.Add(a.Value, b.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(gr)
		b.accumulate(gr)
	}, a, b)
}

// Sub returns a - b (identical shapes).
func (g *Graph) Sub(a, b *Node) *Node {
	out := tensor.Sub(a.Value, b.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(gr)
		neg := tensor.Scale(gr, -1)
		b.accumulate(neg)
	}, a, b)
}

// Mul returns the element-wise product a ⊙ b.
func (g *Graph) Mul(a, b *Node) *Node {
	out := tensor.Mul(a.Value, b.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.Mul(gr, b.Value))
		b.accumulate(tensor.Mul(gr, a.Value))
	}, a, b)
}

// Div returns the element-wise quotient a / b.
func (g *Graph) Div(a, b *Node) *Node {
	out := tensor.New(a.Value.Shape...)
	for i := range out.Data {
		out.Data[i] = a.Value.Data[i] / b.Value.Data[i]
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(gr.Shape...)
		gb := tensor.New(gr.Shape...)
		for i := range gr.Data {
			bv := b.Value.Data[i]
			ga.Data[i] = gr.Data[i] / bv
			gb.Data[i] = -gr.Data[i] * a.Value.Data[i] / (bv * bv)
		}
		a.accumulate(ga)
		b.accumulate(gb)
	}, a, b)
}

// Scale returns a * s for scalar constant s.
func (g *Graph) Scale(a *Node, s float64) *Node {
	if g.arena != nil {
		out := g.arena.New(a.Value.Shape...)
		for i, v := range a.Value.Data {
			out.Data[i] = v * s
		}
		return g.result(out)
	}
	out := tensor.Scale(a.Value, s)
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.Scale(gr, s))
	}, a)
}

// AddScalar returns a + s element-wise for scalar constant s.
func (g *Graph) AddScalar(a *Node, s float64) *Node {
	out := a.Value.Clone()
	for i := range out.Data {
		out.Data[i] += s
	}
	return g.add(out, func(gr *tensor.Tensor) { a.accumulate(gr) }, a)
}

// Neg returns -a.
func (g *Graph) Neg(a *Node) *Node { return g.Scale(a, -1) }

// ReLU applies max(0, x) element-wise.
func (g *Graph) ReLU(a *Node) *Node {
	out := g.newTensor(a.Value.Shape...)
	for i, v := range a.Value.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(gr.Shape...)
		for i, v := range a.Value.Data {
			if v > 0 {
				ga.Data[i] = gr.Data[i]
			}
		}
		a.accumulate(ga)
	}, a)
}

// LeakyReLU applies x if x>0 else slope*x.
func (g *Graph) LeakyReLU(a *Node, slope float64) *Node {
	out := tensor.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = slope * v
		}
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(gr.Shape...)
		for i, v := range a.Value.Data {
			if v > 0 {
				ga.Data[i] = gr.Data[i]
			} else {
				ga.Data[i] = slope * gr.Data[i]
			}
		}
		a.accumulate(ga)
	}, a)
}

// Tanh applies the hyperbolic tangent element-wise.
func (g *Graph) Tanh(a *Node) *Node {
	out := g.newTensor(a.Value.Shape...)
	for i, v := range a.Value.Data {
		out.Data[i] = math.Tanh(v)
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(gr.Shape...)
		for i := range gr.Data {
			y := out.Data[i]
			ga.Data[i] = gr.Data[i] * (1 - y*y)
		}
		a.accumulate(ga)
	}, a)
}

// Sigmoid applies the logistic function element-wise.
func (g *Graph) Sigmoid(a *Node) *Node {
	out := tensor.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		out.Data[i] = sigmoid(v)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(gr.Shape...)
		for i := range gr.Data {
			y := out.Data[i]
			ga.Data[i] = gr.Data[i] * y * (1 - y)
		}
		a.accumulate(ga)
	}, a)
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Exp applies e^x element-wise.
func (g *Graph) Exp(a *Node) *Node {
	out := tensor.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		out.Data[i] = math.Exp(v)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.Mul(gr, out))
	}, a)
}

// Square applies x² element-wise.
func (g *Graph) Square(a *Node) *Node {
	out := tensor.Mul(a.Value, a.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.Mul(gr, a.Value)
		a.accumulate(tensor.Scale(ga, 2))
	}, a)
}

// Dropout zeroes each element with probability rate and scales survivors by
// 1/(1-rate) (inverted dropout). When train is false it is the identity.
func (g *Graph) Dropout(a *Node, rate float64, rng *rand.Rand, train bool) *Node {
	if !train || rate <= 0 {
		return a
	}
	keep := 1 - rate
	mask := tensor.New(a.Value.Shape...)
	out := tensor.New(a.Value.Shape...)
	for i, v := range a.Value.Data {
		if rng.Float64() < keep {
			mask.Data[i] = 1 / keep
			out.Data[i] = v / keep
		}
	}
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.Mul(gr, mask))
	}, a)
}

// GRL is the gradient reversal layer from unsupervised domain adaptation
// by backpropagation (Ganin & Lempitsky, 2015): identity on the forward
// pass, multiplication by -lambda on the backward pass.
func (g *Graph) GRL(a *Node, lambda float64) *Node {
	out := a.Value.Clone()
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.Scale(gr, -lambda))
	}, a)
}

// Mean reduces all elements to their scalar mean.
func (g *Graph) Mean(a *Node) *Node {
	n := float64(a.Value.Size())
	out := tensor.Scalar(tensor.Mean(a.Value))
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(a.Value.Shape...)
		ga.Fill(gr.Data[0] / n)
		a.accumulate(ga)
	}, a)
}

// Sum reduces all elements to their scalar sum.
func (g *Graph) Sum(a *Node) *Node {
	out := tensor.Scalar(tensor.Sum(a.Value))
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(a.Value.Shape...)
		ga.Fill(gr.Data[0])
		a.accumulate(ga)
	}, a)
}

// MeanRows reduces a [m,n] matrix to its per-column mean [n] over rows.
func (g *Graph) MeanRows(a *Node) *Node {
	m, n := a.Value.Rows(), a.Value.Cols()
	out := tensor.New(n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j] += a.Value.Data[i*n+j]
		}
	}
	fm := float64(m)
	for j := range out.Data {
		out.Data[j] /= fm
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				ga.Data[i*n+j] = gr.Data[j] / fm
			}
		}
		a.accumulate(ga)
	}, a)
}
