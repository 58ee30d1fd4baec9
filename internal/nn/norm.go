package nn

import (
	"fmt"
	"math"

	"logsynergy/internal/tensor"
)

// SoftmaxLastDim applies a softmax along the final dimension.
func (g *Graph) SoftmaxLastDim(a *Node) *Node {
	if g.arena != nil {
		return g.result(g.arena.SoftmaxLastDim(a.Value))
	}
	out := tensor.SoftmaxLastDim(a.Value)
	n := a.Value.Shape[len(a.Value.Shape)-1]
	rows := a.Value.Size() / n
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(a.Value.Shape...)
		for r := 0; r < rows; r++ {
			y := out.Data[r*n : (r+1)*n]
			gy := gr.Data[r*n : (r+1)*n]
			dot := 0.0
			for i := range y {
				dot += y[i] * gy[i]
			}
			dst := ga.Data[r*n : (r+1)*n]
			for i := range y {
				dst[i] = y[i] * (gy[i] - dot)
			}
		}
		a.accumulate(ga)
	}, a)
}

// layerNormEps keeps the variance denominator away from zero.
const layerNormEps = 1e-5

// LayerNorm normalizes the final dimension of x to zero mean and unit
// variance, then applies a learned affine transform gamma*x̂ + beta.
// gamma and beta are vectors matching the final dimension.
func (g *Graph) LayerNorm(x, gamma, beta *Node) *Node {
	n := gamma.Value.Size()
	if beta.Value.Size() != n || x.Value.Shape[len(x.Value.Shape)-1] != n {
		panic(fmt.Sprintf("nn: LayerNorm size mismatch x=%v gamma=%d beta=%d",
			x.Value.Shape, n, beta.Value.Size()))
	}
	rows := x.Value.Size() / n
	out := g.newTensor(x.Value.Shape...)
	// x̂ and 1/σ are kept for the backward pass only.
	var xhat *tensor.Tensor
	var invStd []float64
	if g.arena == nil {
		xhat = tensor.New(x.Value.Shape...)
		invStd = make([]float64, rows)
	}
	for r := 0; r < rows; r++ {
		src := x.Value.Data[r*n : (r+1)*n]
		mean := 0.0
		for _, v := range src {
			mean += v
		}
		mean /= float64(n)
		varSum := 0.0
		for _, v := range src {
			d := v - mean
			varSum += d * d
		}
		is := 1 / math.Sqrt(varSum/float64(n)+layerNormEps)
		dst := out.Data[r*n : (r+1)*n]
		var keep []float64
		if xhat != nil {
			invStd[r] = is
			keep = xhat.Data[r*n : (r+1)*n]
		}
		for i, v := range src {
			xh := (v - mean) * is
			if keep != nil {
				keep[i] = xh
			}
			dst[i] = gamma.Value.Data[i]*xh + beta.Value.Data[i]
		}
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		if gamma.needsGrad {
			gg := tensor.New(n)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					gg.Data[i] += gr.Data[r*n+i] * xhat.Data[r*n+i]
				}
			}
			gamma.accumulate(gg)
		}
		if beta.needsGrad {
			gb := tensor.New(n)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					gb.Data[i] += gr.Data[r*n+i]
				}
			}
			beta.accumulate(gb)
		}
		if x.needsGrad {
			gx := tensor.New(x.Value.Shape...)
			fn := float64(n)
			for r := 0; r < rows; r++ {
				gy := gr.Data[r*n : (r+1)*n]
				xh := xhat.Data[r*n : (r+1)*n]
				// h = gamma ⊙ upstream gradient for this row.
				sumH, sumHX := 0.0, 0.0
				h := make([]float64, n)
				for i := 0; i < n; i++ {
					h[i] = gy[i] * gamma.Value.Data[i]
					sumH += h[i]
					sumHX += h[i] * xh[i]
				}
				dst := gx.Data[r*n : (r+1)*n]
				for i := 0; i < n; i++ {
					dst[i] = invStd[r] * (h[i] - sumH/fn - xh[i]*sumHX/fn)
				}
			}
			x.accumulate(gx)
		}
	}, x, gamma, beta)
}
