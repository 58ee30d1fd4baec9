package nn

import (
	"fmt"

	"logsynergy/internal/tensor"
)

// MatMul returns the matrix product of 2-D nodes a [m,k] and b [k,n].
func (g *Graph) MatMul(a, b *Node) *Node {
	if g.arena != nil {
		return g.result(g.arena.MatMul(a.Value, b.Value))
	}
	out := tensor.MatMul(a.Value, b.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		if a.needsGrad {
			ga := tensor.MatMul(gr, tensor.Transpose(b.Value))
			a.accumulate(ga)
		}
		if b.needsGrad {
			gb := tensor.MatMul(tensor.Transpose(a.Value), gr)
			b.accumulate(gb)
		}
	}, a, b)
}

// BMM returns the batched matrix product of 3-D nodes a [b,m,k], b [b,k,n].
func (g *Graph) BMM(a, b *Node) *Node {
	if g.arena != nil {
		return g.result(g.arena.BMM(a.Value, b.Value))
	}
	out := tensor.BMM(a.Value, b.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		if a.needsGrad {
			ga := tensor.BMM(gr, tensor.TransposeLast2(b.Value))
			a.accumulate(ga)
		}
		if b.needsGrad {
			gb := tensor.BMM(tensor.TransposeLast2(a.Value), gr)
			b.accumulate(gb)
		}
	}, a, b)
}

// Transpose returns the transpose of a 2-D node.
func (g *Graph) Transpose(a *Node) *Node {
	out := tensor.Transpose(a.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.Transpose(gr))
	}, a)
}

// TransposeLast2 swaps the last two dimensions of a 3-D node.
func (g *Graph) TransposeLast2(a *Node) *Node {
	if g.arena != nil {
		return g.result(g.arena.TransposeLast2(a.Value))
	}
	out := tensor.TransposeLast2(a.Value)
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(tensor.TransposeLast2(gr))
	}, a)
}

// Reshape returns a node viewing the same elements with a new shape. The
// output aliases the input's backing array (no copy): graph operations
// never mutate their inputs' values, so the view is safe on the forward
// path, and the backward pass likewise reshapes the upstream gradient as a
// view (accumulate only reads it).
func (g *Graph) Reshape(a *Node, shape ...int) *Node {
	if g.arena != nil {
		g.last = nil // a's buffer now has a second reader
		return g.value(g.arena.Reshape(a.Value, shape...))
	}
	out := a.Value.Reshape(shape...)
	inShape := a.Value.Shape
	return g.add(out, func(gr *tensor.Tensor) {
		a.accumulate(gr.Reshape(inShape...))
	}, a)
}

// AddBias adds a bias vector b [n] to every length-n row of x, where x's
// final dimension is n (x may be 2-D or 3-D).
//
// On an inference graph, when x is the operation output the graph produced
// last (the g.AddBias(g.MatMul(…), …) of a linear layer), the bias is added
// into x's buffer and x must not be read again: same sums, no copy.
func (g *Graph) AddBias(x, b *Node) *Node {
	n := b.Value.Size()
	if x.Value.Shape[len(x.Value.Shape)-1] != n {
		panic(fmt.Sprintf("nn: AddBias bias size %d does not match last dim of %v", n, x.Value.Shape))
	}
	if g.arena != nil {
		if g.last != x { // something else may read x: add into a copy
			out := g.arena.New(x.Value.Shape...)
			copy(out.Data, x.Value.Data)
			x = g.result(out)
		}
		addBiasRows(x.Value.Data, b.Value.Data, 0, len(x.Value.Data)/n)
		return x
	}
	out := x.Value.Clone()
	rows := out.Size() / n
	tensor.ParallelRange(rows, rows*n, func(lo, hi int) {
		addBiasRows(out.Data, b.Value.Data, lo, hi)
	})
	return g.add(out, func(gr *tensor.Tensor) {
		x.accumulate(gr)
		if b.needsGrad {
			gb := tensor.New(n)
			for r := 0; r < rows; r++ {
				row := gr.Data[r*n : (r+1)*n]
				for j := range row {
					gb.Data[j] += row[j]
				}
			}
			b.accumulate(gb)
		}
	}, x, b)
}

// AddTimeTable adds the constant table [T,D] to every batch entry of
// x [B,T,D] (positional encodings: one table, no per-batch copy of it).
func (g *Graph) AddTimeTable(x *Node, table *tensor.Tensor) *Node {
	if x.Value.Dims() != 3 || table.Dims() != 2 || x.Value.Shape[1] != table.Shape[0] || x.Value.Shape[2] != table.Shape[1] {
		panic(fmt.Sprintf("nn: AddTimeTable table %v does not match x %v", table.Shape, x.Value.Shape))
	}
	out := g.newTensor(x.Value.Shape...)
	td := len(table.Data)
	for i := 0; i < x.Value.Shape[0]; i++ {
		src := x.Value.Data[i*td : (i+1)*td]
		dst := out.Data[i*td : (i+1)*td]
		for j, v := range table.Data {
			dst[j] = src[j] + v
		}
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) { x.accumulate(gr) }, x)
}

// addBiasRows adds bias to rows [lo,hi) of x, each len(bias) long.
func addBiasRows(x, bias []float64, lo, hi int) {
	n := len(bias)
	for r := lo; r < hi; r++ {
		row := x[r*n : (r+1)*n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// ConcatCols concatenates 2-D nodes horizontally: [m,n1] ++ [m,n2] -> [m,n1+n2].
func (g *Graph) ConcatCols(a, b *Node) *Node {
	m, n1 := a.Value.Rows(), a.Value.Cols()
	if b.Value.Rows() != m {
		panic(fmt.Sprintf("nn: ConcatCols row mismatch %v vs %v", a.Value.Shape, b.Value.Shape))
	}
	n2 := b.Value.Cols()
	out := g.newTensor(m, n1+n2)
	for i := 0; i < m; i++ {
		copy(out.Data[i*(n1+n2):], a.Value.Data[i*n1:(i+1)*n1])
		copy(out.Data[i*(n1+n2)+n1:], b.Value.Data[i*n2:(i+1)*n2])
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		if a.needsGrad {
			ga := tensor.New(m, n1)
			for i := 0; i < m; i++ {
				copy(ga.Data[i*n1:(i+1)*n1], gr.Data[i*(n1+n2):])
			}
			a.accumulate(ga)
		}
		if b.needsGrad {
			gb := tensor.New(m, n2)
			for i := 0; i < m; i++ {
				copy(gb.Data[i*n2:(i+1)*n2], gr.Data[i*(n1+n2)+n1:i*(n1+n2)+n1+n2])
			}
			b.accumulate(gb)
		}
	}, a, b)
}

// SliceCols selects columns [start,end) of a 2-D node.
func (g *Graph) SliceCols(a *Node, start, end int) *Node {
	m, n := a.Value.Rows(), a.Value.Cols()
	if start < 0 || end > n || start >= end {
		panic(fmt.Sprintf("nn: SliceCols [%d,%d) out of range for %d cols", start, end, n))
	}
	w := end - start
	out := g.newTensor(m, w)
	for i := 0; i < m; i++ {
		copy(out.Data[i*w:(i+1)*w], a.Value.Data[i*n+start:i*n+end])
	}
	if g.arena != nil {
		return g.result(out)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(m, n)
		for i := 0; i < m; i++ {
			copy(ga.Data[i*n+start:i*n+end], gr.Data[i*w:(i+1)*w])
		}
		a.accumulate(ga)
	}, a)
}

// SliceRows selects rows [start,end) of a 2-D node.
func (g *Graph) SliceRows(a *Node, start, end int) *Node {
	m, n := a.Value.Rows(), a.Value.Cols()
	if start < 0 || end > m || start >= end {
		panic(fmt.Sprintf("nn: SliceRows [%d,%d) out of range for %d rows", start, end, m))
	}
	h := end - start
	out := tensor.New(h, n)
	copy(out.Data, a.Value.Data[start*n:end*n])
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(m, n)
		copy(ga.Data[start*n:end*n], gr.Data)
		a.accumulate(ga)
	}, a)
}

// ConcatRows concatenates 2-D nodes vertically: [m1,n] ++ [m2,n] -> [m1+m2,n].
func (g *Graph) ConcatRows(a, b *Node) *Node {
	n := a.Value.Cols()
	if b.Value.Cols() != n {
		panic(fmt.Sprintf("nn: ConcatRows col mismatch %v vs %v", a.Value.Shape, b.Value.Shape))
	}
	m1, m2 := a.Value.Rows(), b.Value.Rows()
	out := tensor.New(m1+m2, n)
	copy(out.Data, a.Value.Data)
	copy(out.Data[m1*n:], b.Value.Data)
	return g.add(out, func(gr *tensor.Tensor) {
		if a.needsGrad {
			ga := tensor.New(m1, n)
			copy(ga.Data, gr.Data[:m1*n])
			a.accumulate(ga)
		}
		if b.needsGrad {
			gb := tensor.New(m2, n)
			copy(gb.Data, gr.Data[m1*n:])
			b.accumulate(gb)
		}
	}, a, b)
}

// GatherRows selects rows of a 2-D node by index (indices may repeat),
// producing [len(idx), n]. Gradients scatter-add back to the source rows.
func (g *Graph) GatherRows(a *Node, idx []int) *Node {
	m, n := a.Value.Rows(), a.Value.Cols()
	out := tensor.New(len(idx), n)
	for i, j := range idx {
		if j < 0 || j >= m {
			panic(fmt.Sprintf("nn: GatherRows index %d out of range for %d rows", j, m))
		}
		copy(out.Data[i*n:(i+1)*n], a.Value.Data[j*n:(j+1)*n])
	}
	indices := append([]int(nil), idx...)
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(m, n)
		for i, j := range indices {
			dst := ga.Data[j*n : (j+1)*n]
			src := gr.Data[i*n : (i+1)*n]
			for k := range dst {
				dst[k] += src[k]
			}
		}
		a.accumulate(ga)
	}, a)
}

// SelectTime extracts timestep t from a [B,T,D] node, producing [B,D].
func (g *Graph) SelectTime(a *Node, t int) *Node {
	if a.Value.Dims() != 3 {
		panic(fmt.Sprintf("nn: SelectTime requires 3-D input, got %v", a.Value.Shape))
	}
	b, tt, d := a.Value.Shape[0], a.Value.Shape[1], a.Value.Shape[2]
	if t < 0 || t >= tt {
		panic(fmt.Sprintf("nn: SelectTime index %d out of range for %d steps", t, tt))
	}
	out := tensor.New(b, d)
	for i := 0; i < b; i++ {
		copy(out.Data[i*d:(i+1)*d], a.Value.Data[(i*tt+t)*d:(i*tt+t+1)*d])
	}
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(b, tt, d)
		for i := 0; i < b; i++ {
			copy(ga.Data[(i*tt+t)*d:(i*tt+t+1)*d], gr.Data[i*d:(i+1)*d])
		}
		a.accumulate(ga)
	}, a)
}

// StackTime stacks T nodes of shape [B,D] into a [B,T,D] node.
func (g *Graph) StackTime(steps []*Node) *Node {
	if len(steps) == 0 {
		panic("nn: StackTime requires at least one step")
	}
	b, d := steps[0].Value.Rows(), steps[0].Value.Cols()
	t := len(steps)
	out := tensor.New(b, t, d)
	for s, n := range steps {
		if n.Value.Rows() != b || n.Value.Cols() != d {
			panic(fmt.Sprintf("nn: StackTime step %d has shape %v, want [%d %d]", s, n.Value.Shape, b, d))
		}
		for i := 0; i < b; i++ {
			copy(out.Data[(i*t+s)*d:(i*t+s+1)*d], n.Value.Data[i*d:(i+1)*d])
		}
	}
	return g.add(out, func(gr *tensor.Tensor) {
		for s, n := range steps {
			if !n.needsGrad {
				continue
			}
			gs := tensor.New(b, d)
			for i := 0; i < b; i++ {
				copy(gs.Data[i*d:(i+1)*d], gr.Data[(i*t+s)*d:(i*t+s+1)*d])
			}
			n.accumulate(gs)
		}
	}, steps...)
}

// MaxTime takes the element-wise maximum of a [B,T,D] node over its time
// dimension, producing [B,D]. Gradients flow to the argmax positions.
// Max-pooling matters for sequence anomaly detection: a window is
// anomalous if it *contains* an anomalous event, which max represents
// directly while mean dilutes a single event by 1/T.
func (g *Graph) MaxTime(a *Node) *Node {
	if a.Value.Dims() != 3 {
		panic(fmt.Sprintf("nn: MaxTime requires 3-D input, got %v", a.Value.Shape))
	}
	b, t, d := a.Value.Shape[0], a.Value.Shape[1], a.Value.Shape[2]
	out := g.newTensor(b, d)
	if g.arena != nil {
		maxTimeRows(out.Data, nil, a.Value.Data, 0, b, t, d)
		return g.result(out)
	}
	argmax := make([]int, b*d)
	tensor.ParallelRange(b, b*t*d, func(lo, hi int) {
		maxTimeRows(out.Data, argmax, a.Value.Data, lo, hi, t, d)
	})
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(b, t, d)
		for i := 0; i < b; i++ {
			for j := 0; j < d; j++ {
				s := argmax[i*d+j]
				ga.Data[(i*t+s)*d+j] = gr.Data[i*d+j]
			}
		}
		a.accumulate(ga)
	}, a)
}

// maxTimeRows takes the per-feature maximum over time of batch entries
// [lo,hi) of a [·,t,d], recording the winning step in argmax unless nil.
func maxTimeRows(out []float64, argmax []int, a []float64, lo, hi, t, d int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < d; j++ {
			best := a[(i*t)*d+j]
			bestS := 0
			for s := 1; s < t; s++ {
				if v := a[(i*t+s)*d+j]; v > best {
					best, bestS = v, s
				}
			}
			out[i*d+j] = best
			if argmax != nil {
				argmax[i*d+j] = bestS
			}
		}
	}
}

// MeanTime averages a [B,T,D] node over its time dimension, producing [B,D].
func (g *Graph) MeanTime(a *Node) *Node {
	if a.Value.Dims() != 3 {
		panic(fmt.Sprintf("nn: MeanTime requires 3-D input, got %v", a.Value.Shape))
	}
	b, t, d := a.Value.Shape[0], a.Value.Shape[1], a.Value.Shape[2]
	out := g.newTensor(b, d)
	if g.arena != nil {
		meanTimeRows(out.Data, a.Value.Data, 0, b, t, d)
		return g.result(out)
	}
	ft := float64(t)
	tensor.ParallelRange(b, b*t*d, func(lo, hi int) {
		meanTimeRows(out.Data, a.Value.Data, lo, hi, t, d)
	})
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(b, t, d)
		tensor.ParallelRange(b, b*t*d, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				grow := gr.Data[i*d : (i+1)*d]
				for s := 0; s < t; s++ {
					arow := ga.Data[(i*t+s)*d : (i*t+s+1)*d]
					for j := range arow {
						arow[j] = grow[j] / ft
					}
				}
			}
		})
		a.accumulate(ga)
	}, a)
}

// meanTimeRows averages batch entries [lo,hi) of a [·,t,d] over time into
// the zeroed rows of out.
func meanTimeRows(out, a []float64, lo, hi, t, d int) {
	ft := float64(t)
	for i := lo; i < hi; i++ {
		orow := out[i*d : (i+1)*d]
		for s := 0; s < t; s++ {
			row := a[(i*t+s)*d : (i*t+s+1)*d]
			for j := range row {
				orow[j] += row[j]
			}
		}
		for j := range orow {
			orow[j] /= ft
		}
	}
}
